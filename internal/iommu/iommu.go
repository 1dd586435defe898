// Package iommu implements device translation agents: the protection
// and translation hardware that stands between a DMA-capable device
// (NIC, checkpoint/paging DMA engine, GC scanner accelerator) and the
// single address space. The paper's protection argument (§2, §4)
// assumes every reference to the shared space is checked; a device that
// writes memory without a check is a hole in the model, so each device
// carries its own IOTLB — organized either like the PLB (per-domain
// protection entries, Figure 1) or like the PA-RISC page-group machine
// (AID-tagged translations plus a group-membership checker, Figure 2) —
// and every DMA transfer passes the same rights test a CPU access
// would.
//
// A device agent performs work *on behalf of* a protection domain (the
// domain that programmed the transfer), and caches authority exactly
// like a CPU's private structures: IOTLB entries installed on miss
// walks, group membership loaded lazily on first use. That makes
// devices first-class shootdown targets — a revocation that reaches
// every CPU but not the NIC leaves a stale IOTLB entry through which
// post-revocation DMA lands, which is precisely the bug class the
// shadow oracle's device audit must catch. Devices are seated above
// the CPU range on the smp interconnect and acknowledge invalidation
// volleys like CPUs do, but slower: a device must drain in-flight DMA
// before acking, so its ack timeout is scaled (smp.DeviceSpec).
//
// Cycle accounting runs on the device's own clock (a device agent is
// its own bus master): IOTLB probes charge OnChipLookup, miss walks
// charge PTWalk + Install, DMA data movement charges MemCopyPage or
// MemAccess plus MemHop per mesh hop between the device's cluster and
// the page's home bank. Shootdown application on the device is charged
// by the smp layer through the same Handler interface CPUs use.
package iommu

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cpu"
	"repro/internal/smp"
	"repro/internal/stats"
)

// Org selects the IOTLB organization.
type Org uint8

const (
	// OrgDomainPage mirrors the PLB: entries are keyed (domain, page)
	// and carry the domain's rights plus the translation. Used with the
	// PLB, conventional and flush kernel models.
	OrgDomainPage Org = iota
	// OrgPageGroup mirrors the PA-RISC machine: entries are keyed by
	// page and carry (AID, group rights, translation); a separate
	// group-membership set plays the PID-register role for the domain
	// the device currently works on behalf of.
	OrgPageGroup
)

// String returns the organization name.
func (o Org) String() string {
	switch o {
	case OrgDomainPage:
		return "domain-page"
	case OrgPageGroup:
		return "page-group"
	}
	return fmt.Sprintf("Org(%d)", uint8(o))
}

// Kind names the device class; it selects nothing mechanically (all
// agents share the IOTLB machinery) but labels counters and errors.
type Kind uint8

const (
	// NIC is a network interface streaming DSM/netsim traffic.
	NIC Kind = iota
	// DMAEngine is a checkpoint/paging bulk-copy engine.
	DMAEngine
	// GCScanner is a garbage-collector scan accelerator (read-only
	// sweeps racing mutators).
	GCScanner
)

// String returns the device-class name.
func (k Kind) String() string {
	switch k {
	case NIC:
		return "nic"
	case DMAEngine:
		return "dma"
	case GCScanner:
		return "gc"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// OS is the kernel interface a device agent walks on IOTLB misses. It
// is the device-relevant subset of machine.OS plus the seat-explicit
// directory note (a device install happens on the device's seat, not
// on whichever CPU the kernel is currently executing).
type OS interface {
	Translate(vpn addr.VPN) (pfn addr.PFN, ok bool)
	ResolveRights(d addr.DomainID, vpn addr.VPN) (r addr.Rights, cacheable, ok bool)
	PageInfo(vpn addr.VPN) (aid addr.GroupID, r addr.Rights, ok bool)
	DomainGroup(d addr.DomainID, g addr.GroupID) (ok, writeDisabled bool)
	// NoteDeviceInstall records in the kernel's sharer directory that
	// the device at seat installed protection/translation state for
	// (d, vpn), so revocations target the device.
	NoteDeviceInstall(seat int, d addr.DomainID, vpn addr.VPN)
}

// Typed failure classes for DMA transfers. AccessError wraps them with
// the device and transfer context.
var (
	// ErrFenced: the device is quarantined/degraded; its DMA channel is
	// fenced and in-flight transfers abort.
	ErrFenced = errors.New("iommu: device fenced")
	// ErrDenied: the IOTLB/group check refused the access (protection).
	ErrDenied = errors.New("iommu: access denied")
	// ErrNoAuthority: the kernel has no record of the page at all.
	ErrNoAuthority = errors.New("iommu: no authority")
	// ErrUnmapped: no translation exists; the kernel's DMA path pages
	// the frame in and retries, so user code normally never sees it.
	ErrUnmapped = errors.New("iommu: page unmapped")
)

// AccessError is a failed DMA access with full attribution.
type AccessError struct {
	Device string
	Seat   int
	Domain addr.DomainID
	VPN    addr.VPN
	Kind   addr.AccessKind
	Err    error
}

// Error implements error.
func (e *AccessError) Error() string {
	return fmt.Sprintf("iommu: device %s (seat %d) domain %d %s vpn %#x: %v",
		e.Device, e.Seat, e.Domain, e.Kind, uint64(e.VPN), e.Err)
}

// Unwrap exposes the failure class for errors.Is.
func (e *AccessError) Unwrap() error { return e.Err }

// Config describes one device agent.
type Config struct {
	// Name labels the device in errors and stats ("nic0", "ckpt-dma").
	Name string
	// Kind is the device class.
	Kind Kind
	// Org selects the IOTLB organization; the kernel picks it to match
	// its protection model.
	Org Org
	// Entries is the IOTLB capacity (fully associative, LRU).
	Entries int
	// Seat is the device's target index on the smp interconnect.
	Seat int
	// Cluster is the mesh cluster the device is wired into.
	Cluster int
	// Geometry is the translation page geometry (base pages).
	Geometry addr.Geometry
	// Costs is read per access so cost-model sweeps apply.
	Costs func() cpu.CostModel
}

// dpKey keys the domain-page IOTLB (the PLB organization).
type dpKey struct {
	d   addr.DomainID
	vpn addr.VPN
}

// dpEntry is a domain-page IOTLB entry.
type dpEntry struct {
	rights addr.Rights
	pfn    addr.PFN
}

// pgEntry is a page-group IOTLB entry (AID-tagged translation).
type pgEntry struct {
	aid    addr.GroupID
	rights addr.Rights
	pfn    addr.PFN
}

// Device is one device translation agent. Like a CPU's private machine
// it is single-threaded; the kernel serializes all access to it.
type Device struct {
	cfg Config
	os  OS

	// Exactly one of dp/pg is non-nil, per cfg.Org.
	dp *assoc.Cache[dpKey, dpEntry]
	pg *assoc.Cache[addr.VPN, pgEntry]
	// groups is the page-group organization's membership set for the
	// on-behalf domain (value: write-disable), the PID-register analog.
	groups map[addr.GroupID]bool

	// onBehalf is the domain whose transfers the device currently
	// carries (the domain that programmed the DMA channel).
	onBehalf addr.DomainID

	cycles stats.Cycles

	nChecks   stats.Handle
	nHits     stats.Handle
	nMisses   stats.Handle
	nWalks    stats.Handle
	nDenied   stats.Handle
	nNoAuth   stats.Handle
	nUnmapped stats.Handle
	nAborted  stats.Handle
	nPurged   stats.Handle
	nApplied  stats.Handle
	nGroupChk stats.Handle

	// Per-device splits kept as plain fields (the shared counters above
	// aggregate across devices; these feed per-device stat prints).
	hits, misses, denied, aborted uint64
}

// New creates a device agent, registering counters under
// "iommu." in ctrs (shared across devices; per-device splits are
// exposed by Stats).
func New(cfg Config, os OS, ctrs *stats.Counters) *Device {
	if cfg.Entries < 1 {
		panic("iommu: need at least one IOTLB entry")
	}
	d := &Device{cfg: cfg, os: os}
	acfg := assoc.Config{Sets: 1, Ways: cfg.Entries, Policy: assoc.LRU}
	switch cfg.Org {
	case OrgDomainPage:
		d.dp = assoc.New[dpKey, dpEntry](acfg, func(k dpKey) uint64 {
			return uint64(k.vpn) ^ uint64(k.d)<<17
		})
	case OrgPageGroup:
		d.pg = assoc.New[addr.VPN, pgEntry](acfg, func(v addr.VPN) uint64 { return uint64(v) })
		d.groups = make(map[addr.GroupID]bool)
	default:
		panic("iommu: unknown IOTLB organization")
	}
	d.nChecks = ctrs.Handle("iommu.checks")
	d.nHits = ctrs.Handle("iommu.iotlb_hits")
	d.nMisses = ctrs.Handle("iommu.iotlb_misses")
	d.nWalks = ctrs.Handle("iommu.walks")
	d.nDenied = ctrs.Handle("iommu.denied")
	d.nNoAuth = ctrs.Handle("iommu.no_authority")
	d.nUnmapped = ctrs.Handle("iommu.unmapped")
	d.nAborted = ctrs.Handle("iommu.aborted")
	d.nPurged = ctrs.Handle("iommu.purged")
	d.nApplied = ctrs.Handle("iommu.shootdowns_applied")
	d.nGroupChk = ctrs.Handle("iommu.group_checks")
	return d
}

// Name returns the device's label.
func (d *Device) Name() string { return d.cfg.Name }

// Kind returns the device class.
func (d *Device) Kind() Kind { return d.cfg.Kind }

// Org returns the IOTLB organization.
func (d *Device) Org() Org { return d.cfg.Org }

// Seat returns the device's smp target index.
func (d *Device) Seat() int { return d.cfg.Seat }

// Cluster returns the device's mesh cluster.
func (d *Device) Cluster() int { return d.cfg.Cluster }

// OnBehalf returns the domain whose transfers the device carries.
func (d *Device) OnBehalf() addr.DomainID { return d.onBehalf }

// Cycles returns the device's accumulated cycles.
func (d *Device) Cycles() uint64 { return d.cycles.Total() }

// Capacity returns the IOTLB capacity.
func (d *Device) Capacity() int {
	if d.dp != nil {
		return d.dp.Capacity()
	}
	return d.pg.Capacity()
}

// Len returns the number of live IOTLB entries.
func (d *Device) Len() int {
	if d.dp != nil {
		return d.dp.Len()
	}
	return d.pg.Len()
}

// Stats returns the device's own hit/miss/denial/abort counts (the
// shared "iommu." counters aggregate across all devices).
func (d *Device) Stats() (hits, misses, denied, aborted uint64) {
	return d.hits, d.misses, d.denied, d.aborted
}

// CountAbort charges one aborted in-flight transfer to the device (the
// kernel calls it when a fenced check kills a DMA operation).
func (d *Device) CountAbort() {
	d.nAborted.Inc()
	d.aborted++
}

// SetOnBehalf reprograms the device's channel for domain dom. Under the
// page-group organization the membership set is per-domain state, so it
// is purged (the PID-register reload of a domain switch); IOTLB entries
// are domain-tagged (domain-page) or domain-neutral translations
// (page-group) and stay.
func (d *Device) SetOnBehalf(dom addr.DomainID) {
	if dom == d.onBehalf {
		return
	}
	d.onBehalf = dom
	if d.groups != nil {
		n := len(d.groups)
		for g := range d.groups {
			delete(d.groups, g)
		}
		if n > 0 {
			d.cycles.Add(uint64(n) * d.cfg.Costs().PurgeEntry)
			d.nPurged.Add(uint64(n))
		}
	}
}

// fail wraps a failure class with transfer context and bumps the
// matching counters.
func (d *Device) fail(vpn addr.VPN, kind addr.AccessKind, class error) error {
	switch class {
	case ErrDenied:
		d.nDenied.Inc()
		d.denied++
	case ErrNoAuthority:
		d.nNoAuth.Inc()
	case ErrUnmapped:
		d.nUnmapped.Inc()
	case ErrFenced:
		d.CountAbort()
	}
	return &AccessError{
		Device: d.cfg.Name, Seat: d.cfg.Seat, Domain: d.onBehalf,
		VPN: vpn, Kind: kind, Err: class,
	}
}

// Check runs one DMA reference for vpn through the device's translation
// and protection path on behalf of the programmed domain, returning the
// frame it may touch. The check is the device-side analog of a machine
// access: IOTLB probe (OnChipLookup), miss walk through the kernel
// (PTWalk + Install, noted in the sharer directory), then the rights
// test. ErrUnmapped means the kernel must page in and retry; ErrDenied
// and ErrNoAuthority are terminal for the transfer.
func (d *Device) Check(vpn addr.VPN, kind addr.AccessKind) (addr.PFN, error) {
	c := d.cfg.Costs()
	d.nChecks.Inc()
	d.cycles.Add(c.OnChipLookup)
	if d.dp != nil {
		return d.checkDomainPage(vpn, kind, c)
	}
	return d.checkPageGroup(vpn, kind, c)
}

// checkDomainPage is the PLB-style path: one probe keyed by the
// on-behalf domain and the page.
func (d *Device) checkDomainPage(vpn addr.VPN, kind addr.AccessKind, c cpu.CostModel) (addr.PFN, error) {
	key := dpKey{d: d.onBehalf, vpn: vpn}
	if e, ok := d.dp.Lookup(key); ok {
		d.nHits.Inc()
		d.hits++
		if !e.rights.Allows(kind) {
			return 0, d.fail(vpn, kind, ErrDenied)
		}
		return e.pfn, nil
	}
	d.nMisses.Inc()
	d.misses++
	d.nWalks.Inc()
	d.cycles.Add(c.PTWalk)
	r, cacheable, ok := d.os.ResolveRights(d.onBehalf, vpn)
	if !ok {
		return 0, d.fail(vpn, kind, ErrNoAuthority)
	}
	pfn, mapped := d.os.Translate(vpn)
	if !mapped {
		return 0, d.fail(vpn, kind, ErrUnmapped)
	}
	if cacheable {
		d.dp.Insert(key, dpEntry{rights: r, pfn: pfn})
		d.cycles.Add(c.Install)
		d.os.NoteDeviceInstall(d.cfg.Seat, d.onBehalf, vpn)
	}
	if !r.Allows(kind) {
		return 0, d.fail(vpn, kind, ErrDenied)
	}
	return pfn, nil
}

// checkPageGroup is the PA-RISC-style path: an AID-tagged translation
// probe followed sequentially by the group-membership check (the
// dependent second lookup of §4.2, charged on every reference).
func (d *Device) checkPageGroup(vpn addr.VPN, kind addr.AccessKind, c cpu.CostModel) (addr.PFN, error) {
	e, ok := d.pg.Lookup(vpn)
	if ok {
		d.nHits.Inc()
		d.hits++
	} else {
		d.nMisses.Inc()
		d.misses++
		d.nWalks.Inc()
		d.cycles.Add(c.PTWalk)
		aid, r, known := d.os.PageInfo(vpn)
		if !known {
			return 0, d.fail(vpn, kind, ErrNoAuthority)
		}
		pfn, mapped := d.os.Translate(vpn)
		if !mapped {
			return 0, d.fail(vpn, kind, ErrUnmapped)
		}
		e = pgEntry{aid: aid, rights: r, pfn: pfn}
		d.pg.Insert(vpn, e)
		d.cycles.Add(c.Install)
		d.os.NoteDeviceInstall(d.cfg.Seat, d.onBehalf, vpn)
	}
	// Sequential group check (AID 0 is architecturally global).
	rights := e.rights
	d.nGroupChk.Inc()
	d.cycles.Add(c.OnChipLookup)
	if e.aid != addr.GlobalGroup {
		wd, member := d.groups[e.aid]
		if !member {
			// Membership miss: the agent walks the kernel's group table
			// and loads the membership, the PID-register reload.
			d.cycles.Add(c.PTWalk)
			allowed, w := d.os.DomainGroup(d.onBehalf, e.aid)
			if !allowed {
				return 0, d.fail(vpn, kind, ErrDenied)
			}
			d.groups[e.aid] = w
			d.cycles.Add(c.Install)
			wd = w
		}
		if wd {
			rights = rights.WithoutWrite()
		}
	}
	if !rights.Allows(kind) {
		return 0, d.fail(vpn, kind, ErrDenied)
	}
	return e.pfn, nil
}

// ChargeDMAPage charges the data-movement cost of one full-page DMA
// transfer to/from vpn: a page copy plus MemHop per mesh hop between
// the device's cluster and the page's home bank.
func (d *Device) ChargeDMAPage(topo smp.Topology, vpn addr.VPN) {
	c := d.cfg.Costs()
	cost := c.MemCopyPage
	if h := topo.MemHopsFrom(d.cfg.Cluster, vpn); h > 0 {
		cost += uint64(h) * c.MemHop
	}
	d.cycles.Add(cost)
}

// ChargeDMAWord charges one word-granularity DMA beat to/from vpn.
func (d *Device) ChargeDMAWord(topo smp.Topology, vpn addr.VPN) {
	c := d.cfg.Costs()
	cost := c.MemAccess
	if h := topo.MemHopsFrom(d.cfg.Cluster, vpn); h > 0 {
		cost += uint64(h) * c.MemHop
	}
	d.cycles.Add(cost)
}

// PurgeAll bulk-invalidates the device: every IOTLB entry and (under
// the page-group organization) the whole membership set, charged per
// entry inspected like a structure scan. This is the rejoin primitive —
// after it the device holds no authority at all.
func (d *Device) PurgeAll() int {
	c := d.cfg.Costs()
	n := 0
	if d.dp != nil {
		n += d.dp.PurgeAll()
	} else {
		n += d.pg.PurgeAll()
		for g := range d.groups {
			delete(d.groups, g)
			n++
		}
	}
	// The agent walks its structure to invalidate: capacity-sized scan,
	// same discipline as the CPU structures' purge accounting.
	d.cycles.Add(uint64(d.Capacity()) * c.PurgeEntry)
	d.nPurged.Add(uint64(n))
	return n
}

// HasDomainEntries reports whether the device still caches authority
// naming domain dom: IOTLB entries keyed by it (domain-page), or — on
// behalf of it — group memberships (page-group). The kernel's sharer
// directory uses this for provable last-entry withdrawal.
func (d *Device) HasDomainEntries(dom addr.DomainID) bool {
	if d.dp != nil {
		found := false
		d.dp.ForEach(func(k dpKey, _ dpEntry) bool {
			if k.d == dom {
				found = true
				return false
			}
			return true
		})
		return found
	}
	// Page-group entries are domain-neutral translations; the domain's
	// cached authority is its membership set.
	return d.onBehalf == dom && len(d.groups) > 0
}

// ForEachDomainPage visits every live domain-page IOTLB entry (nil op
// under the page-group organization); the oracle's device audit uses
// it.
func (d *Device) ForEachDomainPage(fn func(dom addr.DomainID, vpn addr.VPN, r addr.Rights, pfn addr.PFN) bool) {
	if d.dp == nil {
		return
	}
	d.dp.ForEach(func(k dpKey, e dpEntry) bool {
		return fn(k.d, k.vpn, e.rights, e.pfn)
	})
}

// ForEachPageGroup visits every live page-group IOTLB entry (nil op
// under the domain-page organization).
func (d *Device) ForEachPageGroup(fn func(vpn addr.VPN, aid addr.GroupID, r addr.Rights, pfn addr.PFN) bool) {
	if d.pg == nil {
		return
	}
	d.pg.ForEach(func(vpn addr.VPN, e pgEntry) bool {
		return fn(vpn, e.aid, e.rights, e.pfn)
	})
}

// ForEachGroup visits the page-group membership set.
func (d *Device) ForEachGroup(fn func(g addr.GroupID, writeDisabled bool) bool) {
	for g, wd := range d.groups {
		if !fn(g, wd) {
			return
		}
	}
}

// Apply performs one shootdown request on the device's structures,
// returning how many entries it touched — the smp.Handler contract,
// identical in role to a CPU's remote-maintenance handler. Every kind
// is handled for both organizations (the kernel broadcasts the same
// request to CPU and device sharers alike), conservatively where a
// kind's natural structure differs from the device's.
func (d *Device) Apply(r smp.Request) int {
	c := d.cfg.Costs()
	affected, inspected := d.apply(r)
	d.nApplied.Inc()
	d.cycles.Add(uint64(inspected)*c.PurgeEntry + uint64(affected)*c.Install)
	return affected
}

func (d *Device) apply(r smp.Request) (affected, inspected int) {
	inRange := func(vpn addr.VPN) bool {
		return r.Range.Contains(d.cfg.Geometry.Base(vpn))
	}
	if d.dp != nil {
		switch r.Kind {
		case smp.InvalRights:
			if d.dp.Invalidate(dpKey{d: r.Domain, vpn: r.VPN}) {
				return 1, 1
			}
			return 0, 1
		case smp.UpdateRights:
			if d.dp.Update(dpKey{d: r.Domain, vpn: r.VPN}, dpEntry{rights: r.Rights, pfn: d.pfnOf(r.Domain, r.VPN)}) {
				return 1, 1
			}
			return 0, 1
		case smp.RangeRights:
			upd, insp := d.dp.UpdateIf(
				func(k dpKey, _ dpEntry) bool { return k.d == r.Domain && inRange(k.vpn) },
				func(_ dpKey, e dpEntry) dpEntry { e.rights = r.Rights; return e })
			return upd, insp
		case smp.RangeDetach:
			return d.dp.PurgeIf(func(k dpKey, _ dpEntry) bool { return k.d == r.Domain && inRange(k.vpn) })
		case smp.DomainPurge:
			// Domain destruction: drop every IOTLB entry keyed by the dying
			// domain (one scan, the device-side analog of PurgeDomain).
			return d.dp.PurgeIf(func(k dpKey, _ dpEntry) bool { return k.d == r.Domain })
		case smp.RangePurge:
			return d.dp.PurgeIf(func(k dpKey, _ dpEntry) bool { return inRange(k.vpn) })
		case smp.PurgeAllProt:
			n := d.dp.PurgeAll()
			return n, d.dp.Capacity()
		case smp.PurgePage, smp.Unmap, smp.GroupUpdate:
			// Page-keyed maintenance; GroupUpdate regroups a page, which
			// a domain-page organization conservatively drops (the next
			// walk re-resolves rights under the new group).
			return d.dp.PurgeIf(func(k dpKey, _ dpEntry) bool { return k.vpn == r.VPN })
		case smp.GroupLoad:
			// Pure grant: a domain-page IOTLB caches nothing negative,
			// so there is nothing to widen in place.
			return 0, 0
		case smp.GroupRevoke:
			// Group revocation for the on-behalf domain: without group
			// bookkeeping the agent cannot tell which pages the group
			// covers, so it conservatively drops the domain's entries.
			if r.Domain == d.onBehalf {
				return d.dp.PurgeIf(func(k dpKey, _ dpEntry) bool { return k.d == r.Domain })
			}
			return 0, 0
		}
		return 0, 0
	}
	switch r.Kind {
	case smp.GroupLoad:
		if r.Domain == d.onBehalf {
			d.groups[r.Group] = r.WD
			return 1, 1
		}
		return 0, 1
	case smp.GroupRevoke:
		if r.Domain == d.onBehalf {
			if _, ok := d.groups[r.Group]; ok {
				delete(d.groups, r.Group)
				return 1, 1
			}
		}
		return 0, 1
	case smp.DomainPurge:
		// Domain destruction: translations are domain-neutral and stay,
		// but the dying domain's cached authority — its membership set —
		// is flushed when the device was acting on its behalf.
		if r.Domain == d.onBehalf {
			n := len(d.groups)
			for g := range d.groups {
				delete(d.groups, g)
			}
			return n, n
		}
		return 0, 1
	case smp.GroupUpdate:
		if d.pg.Update(r.VPN, pgEntry{aid: r.Group, rights: r.Rights, pfn: d.pgPFNOf(r.VPN)}) {
			return 1, 1
		}
		return 0, 1
	case smp.PurgePage, smp.Unmap:
		if d.pg.Invalidate(r.VPN) {
			return 1, 1
		}
		return 0, 1
	case smp.PurgeAllProt:
		n := d.pg.PurgeAll()
		for g := range d.groups {
			delete(d.groups, g)
			n++
		}
		return n, d.pg.Capacity()
	case smp.InvalRights, smp.UpdateRights:
		// Domain-keyed rights maintenance on a domain-neutral IOTLB:
		// conservatively drop the page's translation so the next DMA
		// re-walks it.
		if d.pg.Invalidate(r.VPN) {
			return 1, 1
		}
		return 0, 1
	case smp.RangeRights, smp.RangeDetach, smp.RangePurge:
		return d.pg.PurgeIf(func(vpn addr.VPN, _ pgEntry) bool { return inRange(vpn) })
	}
	return 0, 0
}

// pfnOf preserves an existing entry's translation across an in-place
// rights rewrite (zero if absent; Update then misses anyway).
func (d *Device) pfnOf(dom addr.DomainID, vpn addr.VPN) addr.PFN {
	if e, ok := d.dp.Peek(dpKey{d: dom, vpn: vpn}); ok {
		return e.pfn
	}
	return 0
}

// pgPFNOf is pfnOf for the page-group organization.
func (d *Device) pgPFNOf(vpn addr.VPN) addr.PFN {
	if e, ok := d.pg.Peek(vpn); ok {
		return e.pfn
	}
	return 0
}
