// Package kernel implements an Opal-style single address space operating
// system kernel over the simulated machines: protection domains, virtual
// segments in a global 64-bit virtual address space, a global translation
// table, lazy fault handling with user-level segment handlers, paging, and
// portal (RPC) calls between domains.
//
// The kernel is the machine's OS interface: hardware structure misses
// resolve against the kernel's authoritative tables. Protection policy
// lives in a per-model engine (domain-page for the PLB machine, page-group
// for the PA-RISC machine) that translates the kernel's model-independent
// protection operations into the hardware manipulations catalogued in
// Table 1 of the paper.
package kernel

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/iommu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/ptable"
	"repro/internal/smp"
	"repro/internal/stats"
)

// Model selects the protection model (and with it, the machine).
type Model uint8

const (
	// ModelDomainPage runs the PLB machine (Figure 1).
	ModelDomainPage Model = iota
	// ModelPageGroup runs the PA-RISC page-group machine (Figure 2).
	ModelPageGroup
	// ModelConventional runs the single address space kernel on a
	// conventional multiple-address-space machine (ASID-tagged combined
	// TLB over per-space views) — the configuration Section 3.1 warns
	// incurs "unnecessary performance costs": duplicated TLB entries for
	// shared pages, per-space protection updates, and whole-TLB scans on
	// mapping changes.
	ModelConventional
	// ModelFlush runs the kernel on a conventional machine without
	// address space identifiers (the i860 regime of Section 2.2): the
	// TLB and virtual cache are flushed on every domain switch. It
	// shares the conventional protection engine; only the machine's
	// switch behaviour differs.
	ModelFlush
)

// String returns the model name used in experiment tables.
func (m Model) String() string {
	switch m {
	case ModelDomainPage:
		return "domain-page"
	case ModelPageGroup:
		return "page-group"
	case ModelConventional:
		return "conventional"
	case ModelFlush:
		return "flush"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// TransKind selects the kernel's software translation structure.
type TransKind uint8

const (
	// TransMap is a hash-map translation table (idealized constant-time
	// walks).
	TransMap TransKind = iota
	// TransInverted is an IBM-801-style inverted page table with a hash
	// anchor and collision chains — sized by physical memory, one entry
	// per mapped page, the organization Section 3.1 recommends for
	// single address space systems. Probe counts expose walk costs.
	TransInverted
)

// DetachPolicy selects how the domain-page engine clears PLB state on
// segment detach (ablation A5; Section 4.1.1 offers both).
type DetachPolicy uint8

const (
	// DetachScan inspects every PLB entry and removes only the
	// detaching (domain, segment) pairs — precise but a full scan.
	DetachScan DetachPolicy = iota
	// DetachPurgeAll flash-clears the entire PLB — one cheap operation,
	// but every domain's rights must fault back in afterwards.
	DetachPurgeAll
)

// Config configures a kernel and its machine.
type Config struct {
	// Model selects the protection model and with it the machine:
	// domain-page (PLB), page-group (PA-RISC), conventional (ASID TLB)
	// or flush (no ASIDs).
	Model Model
	// PLBDetach selects the detach implementation under ModelDomainPage.
	PLBDetach DetachPolicy
	// TransTable selects the software translation structure.
	TransTable TransKind
	// AutoEvict enables the page daemon: when physical memory is
	// exhausted, the kernel transparently pages out the oldest resident
	// page (FIFO) to satisfy the fault, instead of failing. Off by
	// default so workloads that manage residency themselves (compression
	// paging) keep full control.
	AutoEvict bool
	// Frames is the physical memory size in frames.
	Frames int
	// PLB configures the PLB machine (ModelDomainPage).
	PLB machine.PLBConfig
	// PG configures the page-group machine (ModelPageGroup).
	PG machine.PGConfig
	// Conv configures the conventional machine (ModelConventional and
	// ModelFlush).
	Conv machine.ConvConfig
	// CPUs is the number of simulated processors. Each CPU owns private
	// protection and translation structures (PLB, TLBs, page-group
	// checker, cache) over the shared kernel state; protection changes
	// reach remote CPUs through the shootdown subsystem (internal/smp).
	// Zero or one means a uniprocessor with no shootdown traffic.
	// Residency is tracked in growable bitsets, so counts beyond 64 are
	// fine; NewChecked rejects counts above MaxCPUs with a *ConfigError.
	CPUs int
	// Topology arranges the CPUs on a clustered 2D mesh of memory banks
	// (internal/smp): cross-cluster IPIs and page-scoped remote
	// maintenance pay per-hop surcharges (CostModel.IPIHop, MemHop). The
	// zero value is a single cluster — every hop count is zero, matching
	// the flat interconnect earlier experiments were calibrated on.
	Topology smp.Topology
	// VABase is the first virtual address handed out to segments.
	VABase addr.VA
	// MaxFaultRetries bounds the access-fault-retry loop; a reference
	// that cannot be satisfied within this many handled faults is a bug
	// in a fault handler.
	MaxFaultRetries int
	// FaultInjector, when non-nil, forces failures at configured kernel
	// hook points (frame allocation, handler dispatch, spurious traps).
	// Production configurations leave it nil.
	FaultInjector *FaultInjector
	// Devices attaches device translation agents (internal/iommu): DMA
	// engines, NICs and scanner accelerators that access memory through
	// their own IOTLB + protection check and occupy shootdown seats
	// above the CPU range. NewChecked validates each entry (seat
	// budget, IOTLB capacity, cluster, timeout scale) with a
	// *ConfigError.
	Devices []DeviceConfig
}

// DefaultConfig returns a kernel configuration for the given model with
// 4096 frames (16 MB) and the default machine configurations.
func DefaultConfig(m Model) Config {
	return Config{
		Model:           m,
		Frames:          4096,
		PLB:             machine.DefaultPLBConfig(),
		PG:              machine.DefaultPGConfig(),
		Conv:            machine.DefaultConvConfig(),
		VABase:          addr.VA(1) << 32,
		MaxFaultRetries: 8,
	}
}

// Segment is a virtual segment: a fixed contiguous range of the global
// virtual address space, allocated at creation and never overlapping any
// other segment. Segments are the unit of attachment, sharing and storage
// management (Section 4.1.1).
type Segment struct {
	ID   addr.SegmentID
	Name string
	// Range is the segment's fixed global address range.
	Range addr.Range

	kern    *kernel
	handler FaultHandler
	// attached lists the domains attached to the segment with their
	// attachment rights, ascending by domain: the mirror of each
	// domain's own attached set, kept in step by every writer (Attach,
	// Detach, SetSegmentRights, fork, destroy).
	attached idSet[addr.DomainID, addr.Rights]
	// group is the segment's primary page-group (page-group model).
	group addr.GroupID
	// groupRights is the primary group's rights field: the union of the
	// attachment rights of all attached domains (page-group model).
	groupRights addr.Rights
	// protShift is the super-page protection shift (domain-page model;
	// zero when the segment uses base-page protection). Section 4.3.
	protShift uint
	// pageRecs indexes the kernel's page records that lie inside this
	// segment (lazily created, dropped with the segment), so per-segment
	// scans never walk the global page table.
	pageRecs map[addr.VPN]*page
}

// NumPages returns the number of translation pages the segment spans.
func (s *Segment) NumPages() uint64 {
	return s.kern.geo.PagesSpanned(s.Range.Start, s.Range.Length)
}

// Base returns the segment's first address.
func (s *Segment) Base() addr.VA { return s.Range.Start }

// PageVA returns the address of the segment's i'th page.
func (s *Segment) PageVA(i uint64) addr.VA {
	return addr.VA(uint64(s.Range.Start) + i*s.kern.geo.PageSize())
}

// PageVPN returns the VPN of the segment's i'th page.
func (s *Segment) PageVPN(i uint64) addr.VPN { return s.kern.geo.PageNumber(s.PageVA(i)) }

// Group returns the segment's primary page-group (page-group model;
// zero under domain-page).
func (s *Segment) Group() addr.GroupID { return s.group }

// HasHandler reports whether the segment has a user-level fault handler
// installed. Handlers may grant rights during fault delivery, so
// differential verdict checks (internal/oracle) skip handled segments.
func (s *Segment) HasHandler() bool { return s.handler != nil }

// ProtShift returns the segment's super-page protection shift (zero when
// the segment uses base-page protection entries).
func (s *Segment) ProtShift() uint { return s.protShift }

// HasAttached reports whether the segment lists domain id as attached.
func (s *Segment) HasAttached(id addr.DomainID) bool {
	_, ok := s.attached.get(id)
	return ok
}

// Domain is a protection domain: a set of access rights to segments and
// pages of the single global address space. It is the analog of a process
// address space, except it defines privileges, not names (Section 1).
type Domain struct {
	ID addr.DomainID

	kern *kernel
	// attached, overrides and groups are lazily initialized: an empty
	// domain is a near-zero-allocation object (the multi-tenant churn
	// target creates and destroys millions of them). Reads tolerate nil
	// (nil slices and nil-receiver ProtTable queries are empty); writers
	// insert into the sorted sets or go through overridesRW.
	//
	// attached is the domain's segment attachments with their rights,
	// ascending by segment (the segment side mirrors it). Fork copies it
	// and destroy walks it in order, so neither sorts; destroy truncates
	// it, and the pooled struct's next incarnation reuses the capacity.
	attached idSet[addr.SegmentID, addr.Rights]
	// overrides may be shared copy-on-write with fork relatives
	// (ForkDomain); the table's own referent count decides whether a
	// mutation must clone first (overridesRW).
	overrides *ptable.ProtTable
	// groups is the domain's page-group set (page-group model), kept
	// ascending by group: the authoritative record behind the PID
	// registers / group cache. Fork copies it and destroy walks it in
	// order, so neither sorts; destroy truncates it, and the pooled
	// struct's next incarnation reuses the capacity.
	groups []machine.GroupAccess
	// execSite is the domain's current execution address, for
	// execution-keyed protection (see exec.go).
	execSite addr.VA
	// cpus is the domain's residency set: CPU i is a member while it may
	// cache the domain's protection entries (it ran the domain, or
	// hardware installed an entry naming it there). Unlike the old
	// monotonic one-word mask, membership is withdrawn when a CPU is
	// bulk-invalidated (purgeSeat, rejoin), when a flush-model CPU
	// switches away, and when a removal shootdown provably drops the
	// domain's last entry on a CPU — so shootdowns for domain-keyed
	// state track live sharers, not the domain's lifetime CPU history.
	cpus smp.CPUSet
}

// Attached reports whether the domain is attached to segment s and with
// what rights.
func (d *Domain) Attached(s *Segment) (addr.Rights, bool) {
	return d.attached.get(s.ID)
}

// groupIndex returns where g sits in d's group set, or where it would
// be inserted, and whether it is present. It is on the page-group
// checker's miss path (DomainGroup), hence hand-written like
// idSet.index.
func (d *Domain) groupIndex(g addr.GroupID) (int, bool) {
	lo, hi := 0, len(d.groups)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if d.groups[h].Group < g {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(d.groups) && d.groups[lo].Group == g
}

// overridesRW returns d's override table ready for mutation: a missing
// table is materialized, and a table shared copy-on-write with a fork
// relative is cloned first. The clone is the fork's deferred cost,
// charged like refilling the copied protection entries (Install each)
// rather than like duplicating a page table.
func (k *Kernel) overridesRW(d *Domain) *ptable.ProtTable {
	if d.overrides == nil {
		d.overrides = ptable.NewProtTable()
	} else if d.overrides.Shared() {
		old := d.overrides
		d.overrides = old.Clone()
		old.Release()
		k.cycles.Add(uint64(d.overrides.Len()) * k.costs().Install)
		k.ctrs.Inc("kernel.cow_override_copies")
	}
	return d.overrides
}

// PageOverride reports the domain's per-page rights override for vpn, if
// one is set. Overrides take precedence over attachment rights; the
// protection oracle (internal/oracle) rebuilds authority from these
// records independently of ResolveRights.
func (d *Domain) PageOverride(vpn addr.VPN) (addr.Rights, bool) {
	return d.overrides.Get(vpn)
}

// Fault describes a protection fault delivered to a segment's user-level
// handler — the mechanism the paper's workloads (GC, DSM, transactions,
// checkpointing) are built on (Table 1).
type Fault struct {
	// K is the kernel, for protection manipulation from the handler.
	K *Kernel
	// Domain is the faulting domain.
	Domain *Domain
	// VA is the faulting address.
	VA addr.VA
	// Kind is the access that faulted.
	Kind addr.AccessKind
	// Segment is the segment containing VA.
	Segment *Segment
}

// FaultHandler resolves a protection fault, typically by manipulating
// rights through the kernel, and returns nil to retry the access. A
// non-nil error aborts the access (a true violation).
type FaultHandler func(f Fault) error

// Errors returned by kernel operations.
var (
	// ErrProtection is a protection violation no handler resolved.
	ErrProtection = errors.New("kernel: protection violation")
	// ErrNoAuthority is a reference outside every segment.
	ErrNoAuthority = errors.New("kernel: address outside all segments")
	// ErrNotAttached is an operation on a segment the domain has not
	// attached.
	ErrNotAttached = errors.New("kernel: domain not attached to segment")
	// ErrFaultLoop is an access that kept faulting after handling.
	ErrFaultLoop = errors.New("kernel: access did not converge after fault handling")
	// ErrUnrepresentable is a rights assignment the page-group model
	// cannot express with a single rights field and write-disable bits
	// (Section 4.1.2 discusses the model's limits).
	ErrUnrepresentable = errors.New("kernel: rights vector unrepresentable in page-group model")
)

// transTable is the interface both software translation structures
// (hash map and inverted) satisfy.
type transTable interface {
	Map(addr.VPN, addr.PFN) error
	Unmap(addr.VPN) (ptable.PTE, error)
	Lookup(addr.VPN) (ptable.PTE, bool)
	// Reference sets the reference bit, and the dirty bit for a store,
	// and returns the entry, in one probe.
	Reference(vpn addr.VPN, store bool) (ptable.PTE, bool)
	ClearDirty(addr.VPN) bool
	Len() int
}

// kernel is the shared state; Kernel is the public face (one type, split
// for documentation clarity).
type kernel struct {
	cfg    Config
	geo    addr.Geometry
	memory *mem.Memory
	disk   *mem.Disk
	trans  transTable

	doms     domainTable
	segments map[addr.SegmentID]*Segment
	segOrder []*Segment // sorted by Range.Start for address lookup

	pageTab pageTable

	nextDomain  addr.DomainID
	nextSegment addr.SegmentID
	nextGroup   addr.GroupID
	nextVA      addr.VA
	freeVA      []addr.Range
	// freeDomains pools destroyed Domain structs for ID recycling
	// (lifecycle.go): LIFO, sets truncated for reuse. freeGroups recycles
	// dead page-group numbers.
	freeDomains []*Domain
	freeGroups  []addr.GroupID
	// maxDomain/maxGroup narrow the ID allocators for exhaustion tests
	// (SetIDLimits); zero means the ID type's natural bound.
	maxDomain addr.DomainID
	maxGroup  addr.GroupID
	// residentFIFO orders mapped pages for the page daemon's FIFO
	// eviction; entries may be stale (skipped when popped).
	residentFIFO []addr.VPN

	ctrs   stats.Counters
	cycles stats.Cycles

	// Pre-resolved handles for the fault/paging path (touch.go), the only
	// kernel counters bumped per simulated reference rather than per
	// management operation.
	hPageFaults, hZeroFills, hAutoEvictions stats.Handle
	hProtFaults, hHandlerUpcalls            stats.Handle
	hPageouts, hPageins, hUnmaps, hRPCCalls stats.Handle
	hDupWalks                               stats.Handle
	// Injection hooks fire on the same per-reference paths, so their
	// counters are handles too (inject.go).
	hInjFrameFails, hInjHandlerErrs, hInjSpurious stats.Handle
	hInjPageinFails, hInjPageoutFails             stats.Handle
	hHWRecoveries                                 stats.Handle
	hCPURecoveries, hCPURejoins                   stats.Handle
	hDevRejoins                                   stats.Handle
	// Lifecycle-churn handles (lifecycle.go): resolved at construction
	// so the million-session workloads never hash a counter name.
	hDomainsCreated, hDomainsDestroyed stats.Handle
	hDomainsForked, hDomainsRecycled   stats.Handle
	// Segment and attachment bookkeeping handles. The engines resolve
	// their own counters (newPGEngine, newConvEngine).
	hSetPageRights, hAttach, hDetach stats.Handle
	hSegsCreated, hSegsDestroyed     stats.Handle
	hVAReuse                         stats.Handle
}

// page is the kernel's per-page record, created lazily.
type page struct {
	seg *Segment
	// group and groupRights are the page-group model's per-page state:
	// the AID in the page's TLB entry and its shared rights field.
	group       addr.GroupID
	groupRights addr.Rights
	// onDisk notes that the page's contents live in the backing store.
	onDisk bool
}

// Kernel is a single address space operating system instance bound to
// one machine per CPU. Construct with New. The mach field always points
// at the current CPU's machine (see SetCPU).
type Kernel struct {
	kernel
	mach       machine.Machine
	engine     engine
	pager      Pager
	execGrants []execGrant

	// machs holds every CPU's machine (index = CPU number).
	machs []machine.Machine
	// seats holds every shootdown seat, indexed like the interconnect:
	// the CPUs' machines followed by the device agents. Protection
	// maintenance reaches all of them as smp.Requests (smp.go).
	seats []seat

	// cur is the current CPU; active is the set of CPUs that may hold
	// live hardware state (ran a domain since their last bulk
	// invalidation) — the fallback target set for requests no per-page
	// sharer record covers.
	cur    int
	active smp.CPUSet
	// pageDir is the sharer directory's page axis: pageDir[vpn] is the
	// set of CPUs that installed hardware state for vpn (trans-TLB,
	// PG-TLB, ASID-TLB or PLB entries) since their last bulk
	// invalidation. It is a superset of live residency — deliveries
	// never withdraw (a PLB protection entry or cache line outlives the
	// translation entry an Unmap drops), only purgeSeat/rejoin and
	// flush-model switch-away do — which keeps page-scoped shootdowns
	// sound while still tracking sharers, not history. Nil entry = no
	// sharers.
	pageDir map[addr.VPN]*smp.CPUSet
	// topo is the normalized mesh topology (see Config.Topology).
	topo smp.Topology
	// shoot is the shootdown subsystem; nil on a uniprocessor with no
	// devices (devices are shootdown targets, so attaching any forces
	// the subsystem on).
	shoot *smp.Shootdown
	// devs holds the attached device translation agents (device.go);
	// device i occupies interconnect seat len(machs)+i, and is also
	// seats[len(machs)+i].
	devs []*iommu.Device
	// deferDepth counts open DeferShootdowns windows; per-operation IPI
	// flushing is suspended while it is nonzero (lazy shootdown), and
	// windows nest — only the outermost FlushShootdowns delivers.
	deferDepth int
}

// New creates a kernel and its machine for the configured model. It
// panics on an invalid configuration (a bad protection page shift
// list, an unusable translation table size); NewChecked returns the
// typed error instead — command-line front ends that build configs
// from user flags should prefer it.
func New(cfg Config) *Kernel {
	k, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// NewChecked creates a kernel and its machines for the configured
// model, returning the construction error (a *ConfigError, a
// *plb.ConfigError or a *ptable.ConfigError, each wrapping its
// package's ErrConfig sentinel) instead of panicking when a
// configuration value is rejected.
func NewChecked(cfg Config) (*Kernel, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = 4096
	}
	if cfg.MaxFaultRetries <= 0 {
		cfg.MaxFaultRetries = 8
	}
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	if cfg.CPUs > MaxCPUs {
		return nil, &ConfigError{Field: "CPUs", Value: cfg.CPUs,
			Reason: fmt.Sprintf("exceeds MaxCPUs (%d)", MaxCPUs)}
	}
	if err := cfg.Topology.Validate(cfg.CPUs); err != nil {
		return nil, &ConfigError{Field: "Topology", Value: cfg.CPUs,
			Reason: err.Error()}
	}
	devcfgs, err := validateDevices(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Devices = devcfgs
	k := &Kernel{}
	k.pageDir = make(map[addr.VPN]*smp.CPUSet)
	k.topo = cfg.Topology.Normalize(cfg.CPUs)
	var geo addr.Geometry
	switch cfg.Model {
	case ModelPageGroup:
		geo = cfg.PG.Geometry
	case ModelConventional, ModelFlush:
		geo = cfg.Conv.Geometry
	default:
		geo = cfg.PLB.Geometry
	}
	if geo == (addr.Geometry{}) {
		geo = addr.BaseGeometry()
	}
	trans, err := newTransTable(cfg)
	if err != nil {
		return nil, err
	}
	k.kernel = kernel{
		cfg:         cfg,
		geo:         geo,
		memory:      mem.NewMemory(geo, cfg.Frames),
		disk:        mem.NewDisk(cfgCost(cfg).DiskRead, cfgCost(cfg).DiskWrite),
		trans:       trans,
		segments:    make(map[addr.SegmentID]*Segment),
		nextDomain:  1,
		nextSegment: 1,
		nextGroup:   1,
		nextVA:      cfg.VABase,
	}
	if k.nextVA == 0 {
		k.nextVA = addr.VA(1) << 32
	}
	k.hPageFaults = k.ctrs.Handle("kernel.page_faults")
	k.hZeroFills = k.ctrs.Handle("kernel.zero_fills")
	k.hAutoEvictions = k.ctrs.Handle("kernel.auto_evictions")
	k.hProtFaults = k.ctrs.Handle("kernel.prot_faults")
	k.hHandlerUpcalls = k.ctrs.Handle("kernel.handler_upcalls")
	k.hPageouts = k.ctrs.Handle("kernel.pageouts")
	k.hPageins = k.ctrs.Handle("kernel.pageins")
	k.hUnmaps = k.ctrs.Handle("kernel.unmaps")
	k.hRPCCalls = k.ctrs.Handle("kernel.rpc_calls")
	k.hDupWalks = k.ctrs.Handle("conv.duplicated_walks")
	k.hInjFrameFails = k.ctrs.Handle("kernel.injected_frame_failures")
	k.hInjHandlerErrs = k.ctrs.Handle("kernel.injected_handler_errors")
	k.hInjSpurious = k.ctrs.Handle("kernel.injected_spurious_traps")
	k.hInjPageinFails = k.ctrs.Handle("kernel.injected_pagein_failures")
	k.hInjPageoutFails = k.ctrs.Handle("kernel.injected_pageout_failures")
	k.hHWRecoveries = k.ctrs.Handle("kernel.hw_recoveries")
	k.hCPURecoveries = k.ctrs.Handle("kernel.cpu_recoveries")
	k.hCPURejoins = k.ctrs.Handle("kernel.cpu_rejoins")
	k.hDevRejoins = k.ctrs.Handle("kernel.dev_rejoins")
	k.hDomainsCreated = k.ctrs.Handle("kernel.domains_created")
	k.hDomainsDestroyed = k.ctrs.Handle("kernel.domains_destroyed")
	k.hDomainsForked = k.ctrs.Handle("kernel.domains_forked")
	k.hDomainsRecycled = k.ctrs.Handle("kernel.domain_ids_recycled")
	k.hSetPageRights = k.ctrs.Handle("kernel.set_page_rights")
	k.hAttach = k.ctrs.Handle("kernel.attach")
	k.hDetach = k.ctrs.Handle("kernel.detach")
	k.hSegsCreated = k.ctrs.Handle("kernel.segments_created")
	k.hSegsDestroyed = k.ctrs.Handle("kernel.segments_destroyed")
	k.hVAReuse = k.ctrs.Handle("kernel.va_reuse")
	for i := 0; i < cfg.CPUs; i++ {
		var m machine.Machine
		switch cfg.Model {
		case ModelPageGroup:
			m = machine.NewPG(cfg.PG, k)
		case ModelConventional:
			m = machine.NewConventional(cfg.Conv, k)
		case ModelFlush:
			m = machine.NewFlush(cfg.Conv, k)
		default:
			if m, err = machine.NewPLB(cfg.PLB, k); err != nil {
				return nil, err
			}
		}
		k.machs = append(k.machs, m)
		k.seats = append(k.seats, m.(seat))
	}
	switch cfg.Model {
	case ModelPageGroup:
		k.engine = newPGEngine(k)
	case ModelConventional, ModelFlush:
		k.engine = newConvEngine(k)
	default:
		k.engine = &dpEngine{k: k}
	}
	k.SetCPU(0)
	if cfg.CPUs > 1 || len(devcfgs) > 0 {
		k.shoot = smp.New(cfg.CPUs, k, k.costs, &k.ctrs, &k.cycles)
		k.shoot.SetTopology(cfg.Topology)
		k.shoot.SetInitiator(k.cur)
	}
	if len(devcfgs) > 0 {
		k.attachDevices(devcfgs)
	}
	if newHook != nil {
		newHook(k)
	}
	return k, nil
}

// newHook, when set, observes every kernel New returns. It exists for
// the chaos campaign runner, which must reach kernels that experiments
// construct internally (to arm fault injectors and to verify them
// against the protection oracle afterwards). Production code never sets
// it.
var newHook func(*Kernel)

// SetNewHook installs (or, with nil, removes) the package-level kernel
// construction hook. The hook must be set and cleared from the same
// goroutine that constructs kernels; it is a test/chaos facility, not a
// concurrency-safe registration point.
func SetNewHook(fn func(*Kernel)) { newHook = fn }

func cfgCost(cfg Config) cpu.CostModel {
	switch cfg.Model {
	case ModelPageGroup:
		return cfg.PG.Costs
	case ModelConventional, ModelFlush:
		return cfg.Conv.Costs
	default:
		return cfg.PLB.Costs
	}
}

func newTransTable(cfg Config) (transTable, error) {
	if cfg.TransTable == TransInverted {
		return ptable.NewInvertedTable(cfg.Frames)
	}
	return ptable.NewTranslationTable(), nil
}

// TranslationProbeStats returns the inverted page table's lookup and
// probe counts (ok=false under TransMap).
func (k *Kernel) TranslationProbeStats() (lookups, probes uint64, ok bool) {
	ipt, isIPT := k.trans.(*ptable.InvertedTable)
	if !isIPT {
		return 0, 0, false
	}
	lookups, probes = ipt.ProbeStats()
	return lookups, probes, true
}

// Model returns the kernel's protection model.
func (k *Kernel) Model() Model { return k.cfg.Model }

// NumCPUs returns the number of simulated processors.
func (k *Kernel) NumCPUs() int { return len(k.machs) }

// CPU returns the current CPU index.
func (k *Kernel) CPU() int { return k.cur }

// SetTopology replaces the mesh topology at runtime (chaos scenarios
// and sweeps re-cluster a built kernel). It returns a *ConfigError if
// the topology cannot seat the configured CPUs.
func (k *Kernel) SetTopology(t smp.Topology) error {
	if err := t.Validate(len(k.machs)); err != nil {
		return &ConfigError{Field: "Topology", Value: len(k.machs), Reason: err.Error()}
	}
	k.topo = t.Normalize(len(k.machs))
	if k.shoot != nil {
		k.shoot.SetTopology(t)
	}
	return nil
}

// Topology returns the normalized mesh topology.
func (k *Kernel) Topology() smp.Topology { return k.topo }

// SetCPU moves the kernel's execution to CPU i: subsequent switches,
// accesses and protection operations run against that CPU's private
// machine. Kernel tables are shared; only the hardware view changes.
// A quarantined, degraded or stale CPU is fenced out of domain
// execution: before it runs anything it is rejoined — its private
// structures bulk-invalidated and its residency withdrawn — so stale
// authority it accumulated while unreachable can never be exercised.
func (k *Kernel) SetCPU(i int) {
	if k.shoot != nil && !k.shoot.Trusted(i) {
		k.rejoinCPU(i)
	}
	k.cur = i
	if k.shoot != nil {
		k.shoot.SetInitiator(i)
	}
	k.mach = k.machs[i]
}

// Machine returns the current CPU's machine.
func (k *Kernel) Machine() machine.Machine { return k.mach }

// MachineAt returns CPU i's machine.
func (k *Kernel) MachineAt(i int) machine.Machine { return k.machs[i] }

// PLBMachine returns the current CPU's PLB machine, or nil under other
// models.
func (k *Kernel) PLBMachine() *machine.PLBMachine { return k.PLBMachineAt(k.cur) }

// PLBMachineAt returns CPU i's PLB machine, or nil under other models.
func (k *Kernel) PLBMachineAt(i int) *machine.PLBMachine {
	m, _ := k.machs[i].(*machine.PLBMachine)
	return m
}

// PGMachine returns the current CPU's page-group machine, or nil under
// other models.
func (k *Kernel) PGMachine() *machine.PGMachine { return k.PGMachineAt(k.cur) }

// PGMachineAt returns CPU i's page-group machine, or nil under other
// models.
func (k *Kernel) PGMachineAt(i int) *machine.PGMachine {
	m, _ := k.machs[i].(*machine.PGMachine)
	return m
}

// ConvMachine returns the current CPU's conventional machine (also the
// embedded machine under ModelFlush), or nil under the single address
// space models.
func (k *Kernel) ConvMachine() *machine.ConventionalMachine { return k.ConvMachineAt(k.cur) }

// ConvMachineAt returns CPU i's conventional machine, or nil under the
// single address space models.
func (k *Kernel) ConvMachineAt(i int) *machine.ConventionalMachine {
	switch m := k.machs[i].(type) {
	case *machine.ConventionalMachine:
		return m
	case *machine.FlushMachine:
		return m.ConventionalMachine
	}
	return nil
}

// Geometry returns the translation page geometry.
func (k *Kernel) Geometry() addr.Geometry { return k.geo }

// Memory returns the physical memory.
func (k *Kernel) Memory() *mem.Memory { return k.memory }

// Disk returns the backing store.
func (k *Kernel) Disk() *mem.Disk { return k.disk }

// Counters returns the kernel's own event counters (machine counters are
// separate; see Machine().Counters()).
func (k *Kernel) Counters() *stats.Counters { return &k.ctrs }

// Cycles returns kernel-charged cycles (handler work, paging, copies);
// machine cycles are separate.
func (k *Kernel) Cycles() uint64 { return k.cycles.Total() }

// TotalCycles returns kernel cycles plus every CPU's machine cycles
// plus every device agent's cycles.
func (k *Kernel) TotalCycles() uint64 {
	total := k.cycles.Total()
	for _, s := range k.seats {
		total += s.Cycles()
	}
	return total
}

// costs returns the active cost model.
func (k *Kernel) costs() cpu.CostModel { return k.mach.Costs() }

// Charge adds kernel-side cycles (used by user-level servers and custom
// pagers to account work the cost model does not see directly).
func (k *Kernel) Charge(n uint64) { k.cycles.Add(n) }

// SegmentOptions customize segment creation.
type SegmentOptions struct {
	// Name labels the segment in diagnostics.
	Name string
	// Handler receives protection faults on the segment's pages.
	Handler FaultHandler
	// AlignShift, if nonzero, aligns the segment's base to 2^AlignShift
	// bytes (needed for super-page PLB entries, Section 4.3).
	AlignShift uint
	// ProtShift, if above the translation page shift, makes the
	// domain-page machine cover the segment with super-page PLB entries
	// of 2^ProtShift bytes — one entry per domain for a constant-rights
	// segment (Section 4.3). The shift must be listed in the PLB
	// configuration's size classes; otherwise it is ignored (counted
	// under kernel.protshift_unsupported). Pages with per-domain
	// overrides fall back to base-shift entries automatically. The
	// page-group model ignores it.
	ProtShift uint
}

// CreateSegment allocates a virtual segment of npages translation pages
// at a fresh, globally unique address range. It panics when the
// page-group model's group numbers are exhausted; CreateSegmentChecked
// returns the typed error instead.
func (k *Kernel) CreateSegment(npages uint64, opts SegmentOptions) *Segment {
	s, err := k.CreateSegmentChecked(npages, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// CreateSegmentChecked is CreateSegment returning the typed allocation
// error (ErrGroupIDsExhausted wrapped, under the page-group model)
// instead of panicking; on error no segment state is retained.
func (k *Kernel) CreateSegmentChecked(npages uint64, opts SegmentOptions) (*Segment, error) {
	if npages == 0 {
		npages = 1
	}
	length := npages * k.geo.PageSize()
	alignShift := opts.AlignShift
	protShift := uint(0)
	if opts.ProtShift > k.geo.Shift() {
		if k.plbSupportsShift(opts.ProtShift) {
			protShift = opts.ProtShift
			if alignShift < opts.ProtShift {
				alignShift = opts.ProtShift
			}
		} else {
			k.ctrs.Inc("kernel.protshift_unsupported")
		}
	}
	base := uint64(k.allocVA(length, alignShift))
	s := &Segment{
		ID:        k.nextSegment,
		Name:      opts.Name,
		Range:     addr.Range{Start: addr.VA(base), Length: length},
		kern:      &k.kernel,
		handler:   opts.Handler,
		protShift: protShift,
	}
	// Engine allocation (the page-group model mints the segment's
	// primary group here) can fail on ID exhaustion; run it before the
	// segment is registered anywhere, so failure leaves only a free-list
	// entry behind.
	if err := k.engine.onCreateSegment(s); err != nil {
		k.freeVAInsert(s.Range)
		return nil, err
	}
	k.nextSegment++
	k.segments[s.ID] = s
	// Insert into the address-ordered index.
	i := sort.Search(len(k.segOrder), func(i int) bool {
		return k.segOrder[i].Range.Start > s.Range.Start
	})
	k.segOrder = append(k.segOrder, nil)
	copy(k.segOrder[i+1:], k.segOrder[i:])
	k.segOrder[i] = s
	k.hSegsCreated.Inc()
	return s, nil
}

// Domains returns every live protection domain, sorted by ID.
func (k *Kernel) Domains() []*Domain {
	out := make([]*Domain, 0, k.doms.len())
	k.doms.forEach(func(d *Domain) { out = append(out, d) })
	return out
}

// Segments returns every live segment in address order.
func (k *Kernel) Segments() []*Segment {
	return append([]*Segment(nil), k.segOrder...)
}

// ExecutorRights returns the rights domain d derives from execution-keyed
// grants at vpn (exec.go), for external authority reconstruction.
func (k *Kernel) ExecutorRights(d *Domain, vpn addr.VPN) (addr.Rights, bool) {
	return k.execRights(d, vpn)
}

// RecoverHardware flash-clears every cached protection and translation
// structure on every CPU — the kernel's recovery action when cached
// hardware state is suspected of diverging from authority (e.g. after a
// detected corruption): all entries fault back in from the authoritative
// tables. In-flight shootdown requests are discarded too (the state they
// would have invalidated is gone). Returns the number of entries
// dropped.
func (k *Kernel) RecoverHardware() int {
	n := 0
	for i := range k.seats {
		n += k.purgeSeat(i)
	}
	if k.shoot != nil {
		k.shoot.Reset()
	}
	k.deferDepth = 0
	k.hHWRecoveries.Inc()
	k.cycles.Add(k.costs().Trap)
	return n
}

// purgeSeat bulk-invalidates seat i (a CPU or a device agent) and
// returns the number of protection/translation entries dropped. A CPU
// also flushes its data cache: virtually-tagged lines satisfy accesses
// without consulting translation, so a CPU leaving the sharer directory
// (which stops unmap shootdowns from reaching it) must not keep any.
func (k *Kernel) purgeSeat(i int) int {
	n := k.seats[i].PurgeAll()
	// The seat provably holds nothing now: withdraw it from the sharer
	// directory so no further shootdowns target it until it reinstalls.
	k.withdrawCPU(i)
	return n
}

// RecoverCPU is per-CPU epoch recovery, the single-CPU generalization
// of RecoverHardware: CPU i's private structures are bulk-invalidated
// (which withdraws it from every directory sharer set — it holds no
// state worth invalidating until it executes again), and shootdowns
// still queued for it are discarded as moot. Charges one trap. Returns
// the number of entries dropped.
func (k *Kernel) RecoverCPU(i int) int {
	n := k.purgeSeat(i)
	if k.shoot != nil {
		k.shoot.DropPending(i)
	}
	k.hCPURecoveries.Inc()
	k.cycles.Add(k.costs().Trap)
	return n
}

// rejoinCPU readmits an untrusted (quarantined, degraded or stale) CPU:
// epoch recovery wipes whatever stale authority it held, then the
// shootdown layer lifts the fence. Degraded CPUs stay fenced — for them
// this is the flush-on-switch path, paid on every entry.
func (k *Kernel) rejoinCPU(i int) {
	k.RecoverCPU(i)
	k.shoot.Rejoin(i)
	k.hCPURejoins.Inc()
}

// ConvergeProtection drives protection maintenance to a convergent
// state: any open defer window is closed and every queued shootdown
// delivered (or its target quarantined, under the acknowledged
// protocol), then every untrusted CPU is rejoined with a bulk
// invalidation. With the acknowledged protocol enabled, no CPU holds
// stale authority on return — the shadow oracle's differential sweep
// must report zero violations — and the cycles consumed are bounded by
// ConvergenceBound as computed immediately before the call. Returns
// the cycles consumed. A uniprocessor converges trivially at zero cost.
func (k *Kernel) ConvergeProtection() uint64 {
	if k.shoot == nil {
		return 0
	}
	start := k.TotalCycles()
	k.deferDepth = 0
	k.shoot.Flush()
	for i := range k.machs {
		if !k.shoot.Trusted(i) {
			k.rejoinCPU(i)
		}
	}
	for i := range k.devs {
		if !k.DeviceTrusted(i) {
			k.RejoinDevice(i)
		}
	}
	return k.TotalCycles() - start
}

// ConvergenceBound returns an upper bound, in cycles, on what
// ConvergeProtection may consume from the current queue and health
// state. Per target with pending work the acknowledged protocol sends
// at most MaxRetries+1 volleys, each charging at most one IPI plus one
// timeout capped at BackoffLimit, and applies each pending request at
// most once (retransmitted copies are sequence-suppressed) at a cost
// dominated by a full scan of the CPU's largest private structure plus
// one page of cache-line flushes; rejoining an untrusted CPU costs one
// trap plus one bulk scan. Zero on a uniprocessor.
func (k *Kernel) ConvergenceBound() uint64 {
	if k.shoot == nil {
		return 0
	}
	p := k.shoot.Protocol()
	c := k.costs()
	// Worst-case cost of one request apply or one bulk invalidation on
	// a CPU (all are configured alike): inspect/remove every resident
	// entry, plus (for unmaps) flushing a
	// page of cache lines — PageSize/16 over-counts lines for any real
	// line size.
	scan := uint64(k.seats[0].Capacity())*(c.PurgeEntry+c.Install) +
		(k.geo.PageSize()/16)*c.CacheLineFlush
	// Mesh surcharges at worst-case distance: every IPI may cross the
	// full diameter, and every applied request may reach a maximally
	// distant home memory bank.
	diam := uint64(k.topo.Diameter())
	ipi := c.IPI + diam*c.IPIHop
	scan += diam * c.MemHop
	volleys := uint64(p.MaxRetries + 1)
	var bound uint64
	for i := range k.machs {
		if pending := uint64(k.shoot.Pending(i)); pending > 0 {
			bound += volleys*(ipi+p.BackoffLimit) + pending*scan
		}
		// Every CPU may need a rejoin (quarantine can happen during the
		// convergence flush itself): one trap plus one bulk purge.
		bound += c.Trap + scan
	}
	// Device seats pay the same structure with their own numbers: the
	// backoff cap is scaled by the device's timeout grant (devices drain
	// in-flight DMA before acking), and the scan covers the IOTLB
	// capacity instead of a CPU's private structures.
	for i, dev := range k.devs {
		seat := k.DeviceSeat(i)
		_, backoff := k.shoot.TargetTimeouts(seat)
		devScan := uint64(dev.Capacity())*(c.PurgeEntry+c.Install) + diam*c.MemHop
		if pending := uint64(k.shoot.Pending(seat)); pending > 0 {
			bound += volleys*(ipi+backoff) + pending*devScan
		}
		bound += c.Trap + devScan
	}
	return bound
}

// FindSegment returns the segment containing va, or nil.
func (k *Kernel) FindSegment(va addr.VA) *Segment {
	i := sort.Search(len(k.segOrder), func(i int) bool {
		return k.segOrder[i].Range.Start > va
	})
	if i == 0 {
		return nil
	}
	s := k.segOrder[i-1]
	if s.Range.Contains(va) {
		return s
	}
	return nil
}

// segmentOf returns the segment containing the page, or nil.
func (k *Kernel) segmentOf(vpn addr.VPN) *Segment { return k.FindSegment(k.geo.Base(vpn)) }

// pageRecord returns (creating if needed) the kernel's record for a page
// that lies in a segment. Returns nil for addresses outside all segments.
func (k *Kernel) pageRecord(vpn addr.VPN) *page {
	if p := k.pageTab.get(vpn); p != nil {
		return p
	}
	s := k.segmentOf(vpn)
	if s == nil {
		return nil
	}
	p := &page{seg: s, group: s.group, groupRights: s.groupRights}
	k.pageTab.put(vpn, p)
	// The segment's own record index keeps the page-group engine's
	// resync scans proportional to the segment, not to every page the
	// kernel has ever touched.
	if s.pageRecs == nil {
		s.pageRecs = make(map[addr.VPN]*page)
	}
	s.pageRecs[vpn] = p
	return p
}

// Attach grants domain d rights r over segment s. Under the domain-page
// model this is pure bookkeeping — PLB entries fault in lazily. Under the
// page-group model the segment's group is added to the domain's group set
// (Table 1, row 1).
func (k *Kernel) Attach(d *Domain, s *Segment, r addr.Rights) {
	d.attached.set(s.ID, r)
	s.attached.set(d.ID, r)
	k.hAttach.Inc()
	k.engine.onAttach(d, s, r)
	k.flushIPIs()
}

// Detach revokes domain d's attachment to s and clears any per-page
// overrides d held in the segment (Table 1, row 2).
func (k *Kernel) Detach(d *Domain, s *Segment) error {
	if !d.attached.remove(s.ID) {
		return ErrNotAttached
	}
	s.attached.remove(d.ID)
	if d.overrides.Len() > 0 {
		startVPN := k.geo.PageNumber(s.Range.Start)
		k.overridesRW(d).ClearRange(startVPN, s.NumPages())
	}
	k.hDetach.Inc()
	k.engine.onDetach(d, s)
	k.flushIPIs()
	return nil
}

// Switch schedules domain d on the current CPU's machine.
func (k *Kernel) Switch(d *Domain) {
	if k.mach.Domain() != d.ID {
		if k.cfg.Model == ModelFlush && k.shoot != nil {
			// The flush machine purges its TLB and cache on the way in
			// (no ASIDs), so the switching CPU provably drops every
			// entry it held: withdraw it from the sharer directory
			// instead of letting residency accrete switch after switch.
			k.withdrawCPU(k.cur)
		}
		k.mach.SwitchDomain(d.ID)
	}
	d.cpus.Add(k.cur)
	k.active.Add(k.cur)
}

// --- machine.OS implementation: the tables hardware refills from ---

// Translate implements machine.OS.
func (k *Kernel) Translate(vpn addr.VPN) (addr.PFN, bool) {
	pte, ok := k.trans.Lookup(vpn)
	if !ok {
		return 0, false
	}
	return pte.PFN, true
}

// ResolveRights implements machine.OS: override, else attachment rights,
// else None for pages inside segments; no authority outside them. The
// cacheable flag is set only when the domain holds a record (override or
// attachment) for the page, so protection hardware never caches denials
// for unattached domains.
func (k *Kernel) ResolveRights(d addr.DomainID, vpn addr.VPN) (addr.Rights, bool, bool) {
	dom := k.doms.get(d)
	if dom == nil {
		return addr.None, false, false
	}
	s := k.segmentOf(vpn)
	if s == nil {
		return addr.None, false, false
	}
	execR, execOK := k.execRights(dom, vpn)
	if r, ok := dom.overrides.Get(vpn); ok {
		return r | execR, true, true
	}
	if r, ok := dom.attached.get(s.ID); ok {
		return r | execR, true, true
	}
	if execOK {
		// Execution-keyed rights apply even to unattached domains; they
		// are cacheable because SetExecutionSite purges them on site
		// changes.
		return execR, true, true
	}
	return addr.None, false, true
}

// PageInfo implements machine.OS (page-group TLB refill).
func (k *Kernel) PageInfo(vpn addr.VPN) (addr.GroupID, addr.Rights, bool) {
	p := k.pageRecord(vpn)
	if p == nil {
		return 0, addr.None, false
	}
	return p.group, p.groupRights, true
}

// DomainGroup implements machine.OS.
func (k *Kernel) DomainGroup(d addr.DomainID, g addr.GroupID) (bool, bool) {
	dom := k.doms.get(d)
	if dom == nil {
		return false, false
	}
	i, ok := dom.groupIndex(g)
	if !ok {
		return false, false
	}
	return true, dom.groups[i].WriteDisable
}

// plbSupportsShift reports whether the PLB configuration lists the shift.
func (k *Kernel) plbSupportsShift(shift uint) bool {
	if k.cfg.Model != ModelDomainPage {
		return false
	}
	for _, s := range k.cfg.PLB.PLB.Shifts {
		if s == shift {
			return true
		}
	}
	return false
}

// ProtShift implements machine.ProtShifter: segments created with a
// super-page protection shift install one PLB entry per 2^shift bytes,
// except for pages where the domain holds a per-page override (those
// must be tracked at base granularity).
func (k *Kernel) ProtShift(d addr.DomainID, vpn addr.VPN) uint {
	s := k.segmentOf(vpn)
	if s == nil || s.protShift == 0 {
		return k.geo.Shift()
	}
	if dom := k.doms.get(d); dom != nil {
		if _, ok := dom.overrides.Get(vpn); ok {
			return k.geo.Shift()
		}
	}
	return s.protShift
}

// DomainGroups implements machine.OS. It returns d's group set itself,
// ascending by group, with no sort and no copy: callers may not keep or
// modify it (PGMachine.SwitchDomain reads it immediately).
func (k *Kernel) DomainGroups(d addr.DomainID) []machine.GroupAccess {
	dom := k.doms.get(d)
	if dom == nil {
		return nil
	}
	return dom.groups
}

// Walk implements machine.MultiOS for ModelConventional: the per-space
// page-table view a multiple-address-space machine forces on a single
// address space OS. Each domain's "page table" holds the SAME global
// translation duplicated per space, with the domain's rights attached.
// ok is false when the page is unmapped or the domain has no protection
// record for it (outside its page tables entirely).
func (k *Kernel) Walk(as addr.ASID, vpn addr.VPN) (ptable.LinearPTE, bool) {
	pfn, ok := k.Translate(vpn)
	if !ok {
		return ptable.LinearPTE{}, false
	}
	r, cacheable, ok := k.ResolveRights(addr.DomainID(as), vpn)
	if !ok || !cacheable {
		return ptable.LinearPTE{}, false
	}
	k.hDupWalks.Inc()
	return ptable.LinearPTE{PFN: pfn, Rights: r, Valid: true}, true
}

var (
	_ machine.OS      = (*Kernel)(nil)
	_ machine.MultiOS = (*Kernel)(nil)
)
