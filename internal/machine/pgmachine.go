package machine

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/pgroup"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// PGCheckerKind selects the page-group check structure.
type PGCheckerKind uint8

const (
	// PGCheckerLRUCache is the Wilkes-Sears LRU cache of page-groups, the
	// variant the paper assumes for its comparison (Section 3.2.2).
	PGCheckerLRUCache PGCheckerKind = iota
	// PGCheckerPIDRegisters is the real PA-RISC's four-register file.
	PGCheckerPIDRegisters
)

// PGConfig configures a PGMachine.
type PGConfig struct {
	// Costs is the cycle cost model.
	Costs cpu.CostModel
	// TLB configures the on-chip page-group TLB. To allow a fair
	// comparison the paper gives it the same entry count as the PLB.
	TLB assoc.Config
	// Checker selects PID registers or the LRU group cache.
	Checker PGCheckerKind
	// CheckerEntries is the group capacity (4 for real PA-RISC
	// registers; larger for the LRU cache).
	CheckerEntries int
	// EagerReload, when set, reloads the page-group cache with the new
	// domain's groups on a switch instead of faulting them in lazily
	// (the performance option of Section 4.1.4).
	EagerReload bool
	// Cache configures the VIVT data cache.
	Cache cache.Config
	// Geometry is the translation page geometry.
	Geometry addr.Geometry
}

// DefaultPGConfig returns the baseline page-group machine: a 128-entry
// TLB (matching the default PLB's entry count, per the paper's fairness
// assumption), a 16-entry LRU group cache, lazy reload.
func DefaultPGConfig() PGConfig {
	return PGConfig{
		Costs:          cpu.DefaultCosts(),
		TLB:            assoc.Config{Sets: 1, Ways: 128, Policy: assoc.LRU},
		Checker:        PGCheckerLRUCache,
		CheckerEntries: 16,
		Cache:          cache.DefaultConfig(),
		Geometry:       addr.BaseGeometry(),
	}
}

// PGMachine is the page-group model implementation of Figure 2.
type PGMachine struct {
	cfg    PGConfig
	os     OS
	obs    ResidencyObserver // non-nil when the OS tracks sharers
	domain addr.DomainID

	tlb     *tlb.PGTLB
	checker pgroup.Checker
	cache   *cache.VirtualCache

	ctrs   stats.Counters
	cycles stats.Cycles

	// Pre-resolved handles for the counters bumped on the reference path.
	hAccesses, hStores, hSwitches, hSwitchCycles  stats.Handle
	hTrapTLB, hTrapPG, hFaultProt, hFaultUnmapped stats.Handle
	hFaultAddressing                              stats.Handle
}

// NewPG builds a page-group machine over the given OS.
func NewPG(cfg PGConfig, os OS) *PGMachine {
	m := &PGMachine{cfg: cfg, os: os}
	m.obs, _ = os.(ResidencyObserver)
	m.tlb = tlb.NewPG(cfg.TLB, &m.ctrs, "pgtlb")
	switch cfg.Checker {
	case PGCheckerPIDRegisters:
		m.checker = pgroup.NewPIDRegisters(cfg.CheckerEntries, &m.ctrs, "pgc")
	default:
		m.checker = pgroup.NewGroupCache(
			assoc.Config{Sets: 1, Ways: cfg.CheckerEntries, Policy: assoc.LRU},
			&m.ctrs, "pgc")
	}
	m.cache = cache.NewVirtual(cfg.Cache, &m.ctrs, "cache")
	m.hAccesses = m.ctrs.Handle(CtrAccesses)
	m.hStores = m.ctrs.Handle(CtrStores)
	m.hSwitches = m.ctrs.Handle(CtrSwitches)
	m.hSwitchCycles = m.ctrs.Handle(CtrSwitchCycles)
	m.hTrapTLB = m.ctrs.Handle(CtrTrapTLBRefill)
	m.hTrapPG = m.ctrs.Handle(CtrTrapPGRefill)
	m.hFaultProt = m.ctrs.Handle(CtrFaultProt)
	m.hFaultUnmapped = m.ctrs.Handle(CtrFaultUnmapped)
	m.hFaultAddressing = m.ctrs.Handle(CtrFaultAddressing)
	return m
}

// Name implements Machine.
func (m *PGMachine) Name() string { return "page-group" }

// Domain implements Machine.
func (m *PGMachine) Domain() addr.DomainID { return m.domain }

// Counters implements Machine.
func (m *PGMachine) Counters() *stats.Counters { return &m.ctrs }

// Cycles implements Machine.
func (m *PGMachine) Cycles() uint64 { return m.cycles.Total() }

// Costs implements Machine.
func (m *PGMachine) Costs() cpu.CostModel { return m.cfg.Costs }

// TLB exposes the page-group TLB for inspection.
func (m *PGMachine) TLB() *tlb.PGTLB { return m.tlb }

// Checker exposes the page-group check structure for inspection.
func (m *PGMachine) Checker() pgroup.Checker { return m.checker }

// Cache exposes the data cache for inspection.
func (m *PGMachine) Cache() *cache.VirtualCache { return m.cache }

// Geometry returns the machine's translation page geometry.
func (m *PGMachine) Geometry() addr.Geometry { return m.cfg.Geometry }

// SwitchDomain implements Machine. The page-group set is per-domain state:
// the checker is purged and, under EagerReload, refilled from the new
// domain's group list (Section 4.1.4).
func (m *PGMachine) SwitchDomain(d addr.DomainID) {
	c := &m.cfg.Costs
	m.domain = d
	m.hSwitches.Inc()
	var cost uint64 = c.RegisterWrite
	purged := m.checker.PurgeAll()
	cost += uint64(purged) * c.PurgeEntry
	if m.cfg.EagerReload {
		for i, g := range m.os.DomainGroups(d) {
			if i >= m.checker.Capacity() {
				break
			}
			m.checker.Load(g.Group, g.WriteDisable)
			cost += c.Install
		}
	}
	m.hSwitchCycles.Add(cost)
	m.cycles.Add(cost)
}

// Access implements Machine: the Figure 2 reference path. The TLB must be
// consulted on every reference to obtain the AID, then the page-group
// check runs sequentially on its result — the dependent second lookup of
// Section 4.2, charged as extra latency on every access.
func (m *PGMachine) Access(va addr.VA, kind addr.AccessKind) cpu.Outcome {
	c := &m.cfg.Costs
	m.hAccesses.Inc()
	if kind == addr.Store {
		m.hStores.Inc()
	}
	// Cache and TLB probe in parallel; the page-group check serializes
	// after the TLB and adds its latency to every reference.
	m.cycles.Add(c.CacheHit + c.OnChipLookup)

	vpn := m.cfg.Geometry.PageNumber(va)
	entry, hit := m.tlb.Lookup(vpn)
	if !hit {
		m.hTrapTLB.Inc()
		m.cycles.Add(c.Trap + c.PTWalk)
		pfn, ok := m.os.Translate(vpn)
		if !ok {
			m.hFaultUnmapped.Inc()
			return cpu.Outcome{Fault: cpu.FaultPageUnmapped}
		}
		aid, rights, ok := m.os.PageInfo(vpn)
		if !ok {
			m.hFaultAddressing.Inc()
			return cpu.Outcome{Fault: cpu.FaultNoAuthority}
		}
		entry = tlb.PGEntry{PFN: pfn, AID: aid, Rights: rights}
		m.tlb.Insert(vpn, entry)
		m.cycles.Add(c.Install)
		if m.obs != nil {
			m.obs.NotePageInstall(vpn)
		}
	}

	// Page-group check: AID 0 is global; otherwise the group must be in
	// the current domain's set.
	rights := entry.Rights
	if entry.AID != addr.GlobalGroup {
		ok, writeDisabled := m.checker.Check(entry.AID)
		if !ok {
			// Trap: the kernel decides whether the domain may access the
			// group at all.
			m.hTrapPG.Inc()
			m.cycles.Add(c.Trap)
			allowed, wd := m.os.DomainGroup(m.domain, entry.AID)
			if !allowed {
				m.hFaultProt.Inc()
				return cpu.Outcome{Fault: cpu.FaultProtection}
			}
			m.checker.Load(entry.AID, wd)
			m.cycles.Add(c.Install)
			writeDisabled = wd
		}
		if writeDisabled {
			rights = rights.WithoutWrite()
		}
	}
	if !rights.Allows(kind) {
		m.hFaultProt.Inc()
		m.cycles.Add(c.Trap)
		return cpu.Outcome{Fault: cpu.FaultProtection}
	}

	// Data: VIVT cache. The translation is already in hand from the TLB,
	// so a miss costs only the fill.
	if m.cache.Access(0, va, kind == addr.Store) {
		return cpu.Outcome{}
	}
	m.cycles.Add(c.CacheFill)
	if wroteBack := m.cache.Fill(0, va, entry.PFN, kind == addr.Store); wroteBack {
		m.cycles.Add(c.Writeback)
	}
	return cpu.Outcome{}
}

// Apply performs one protection-maintenance request on this CPU's
// structures (see PLBMachine.Apply); kinds the page-group engine never
// issues touch nothing.
func (m *PGMachine) Apply(r smp.Request) int {
	c := &m.cfg.Costs
	switch r.Kind {
	case smp.GroupUpdate:
		// Rewrite the resident TLB entry for the page — changing its
		// rights field or moving it to another page-group. One entry
		// serves all domains, which is what makes all-domain changes
		// cheap (Section 4.1.2).
		pfn, ok := m.os.Translate(r.VPN)
		if !ok {
			// No translation: nothing can be resident.
			return 0
		}
		if m.tlb.Update(r.VPN, tlb.PGEntry{PFN: pfn, AID: r.Group, Rights: r.Rights}) {
			m.cycles.Add(c.Install)
			return 1
		}
	case smp.GroupLoad:
		// Load the group into the checker if d is the executing domain
		// (a newly attached segment's group becomes visible
		// immediately; otherwise it loads on the domain's next run).
		if r.Domain == m.domain {
			m.checker.Load(r.Group, r.WD)
			m.cycles.Add(c.Install)
			return 1
		}
	case smp.GroupRevoke:
		// Remove the group from the checker if d is the executing
		// domain (segment detach: one group purge, no scan — the
		// page-group model's cheap detach of Section 4.1.1).
		if r.Domain == m.domain && m.checker.Remove(r.Group) {
			m.cycles.Add(c.PurgeEntry)
			return 1
		}
	case smp.Unmap:
		// The TLB entry goes and the page's cache lines are flushed
		// (Section 4.1.3).
		return unmapPage(m.tlb.Invalidate(r.VPN), m.cache, r.VPN, m.cfg.Geometry, c, &m.cycles)
	}
	return 0
}

// PurgeAll clears the TLB and the checker and flushes the data cache
// (see PLBMachine.PurgeAll), returning the TLB and checker entries
// dropped.
func (m *PGMachine) PurgeAll() int {
	n := m.tlb.PurgeAll() + m.checker.PurgeAll()
	flushVIVT(m.cache, &m.cfg.Costs, &m.cycles)
	return n
}

// HasDomainEntries always reports true: page-group hardware holds no
// per-domain entries to scan (the checker targets by executing domain,
// not residency), so withdrawal waits for a bulk invalidation.
func (m *PGMachine) HasDomainEntries(addr.DomainID) bool { return true }

// Capacity returns the entry capacity of the TLB plus the checker.
func (m *PGMachine) Capacity() int { return m.tlb.Capacity() + m.checker.Capacity() }

var _ Machine = (*PGMachine)(nil)
