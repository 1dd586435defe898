// Package pgroup implements the processor-side page-group check of the
// PA-RISC protection architecture (Figure 2): the structure holding the
// set of page-groups the currently executing protection domain may access.
//
// Two implementations are provided:
//
//   - PIDRegisters: the real PA-RISC's four PID registers. The hardware
//     gives the OS no replacement information, so the OS reloads them
//     round-robin on misses.
//
//   - GroupCache: the paper's assumed variant (after Wilkes & Sears), an
//     LRU cache of permitted page-groups.
//
// Both honour the write-disable bit attached to a domain's access to a
// group, and both treat AID 0 (the global group) as always accessible.
package pgroup

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// Checker is the common interface of the two page-group check structures.
// A Checker holds state for the currently executing domain only; domain
// switches purge it (Section 4.1.4).
type Checker interface {
	// Check reports whether the current domain may access group g, and
	// whether writes to the group are disabled. Check(GlobalGroup) is
	// always (true, false).
	Check(g addr.GroupID) (ok bool, writeDisabled bool)
	// Load installs group g (after the kernel validates access on a
	// miss trap).
	Load(g addr.GroupID, writeDisabled bool)
	// Remove drops group g, reporting whether it was resident (used on
	// segment detach).
	Remove(g addr.GroupID) bool
	// PurgeAll empties the structure (domain switch), returning how many
	// entries were resident.
	PurgeAll() int
	// Len returns the number of resident groups.
	Len() int
	// Capacity returns the maximum number of resident groups.
	Capacity() int
	// ForEach visits all resident groups until fn returns false.
	ForEach(fn func(g addr.GroupID, writeDisabled bool) bool)
	// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
	// consulted on every Load; returning a replacement (group,
	// write-disable) with true corrupts the loaded entry in place —
	// modeling a stale PID register or a flipped AID bit, which grants
	// the current domain access to the wrong page-group. Corrupted loads
	// are counted under prefix+".corrupted".
	SetCorruptor(fn Corruptor)
}

// Corruptor is the chaos-testing hook shared by the Checker
// implementations; see Checker.SetCorruptor.
type Corruptor func(g addr.GroupID, writeDisabled bool) (addr.GroupID, bool, bool)

// PIDRegisters is the PA-RISC register-file implementation: a fixed set
// of page-group registers with round-robin replacement by the OS.
type PIDRegisters struct {
	regs []pidReg
	next int // round-robin pointer

	nHit, nMiss, nLoad stats.Handle
	nPurged, nRemoved  stats.Handle
	nCorrupted         stats.Handle

	corrupt Corruptor
}

type pidReg struct {
	group        addr.GroupID
	writeDisable bool
	valid        bool
}

// NewPIDRegisters creates a register file with n registers (PA-RISC 1.1
// has four), counting under prefix.
func NewPIDRegisters(n int, ctrs *stats.Counters, prefix string) *PIDRegisters {
	if n < 1 {
		panic("pgroup: need at least one PID register")
	}
	p := &PIDRegisters{regs: make([]pidReg, n)}
	p.nHit = ctrs.Handle(prefix + ".hit")
	p.nMiss = ctrs.Handle(prefix + ".miss")
	p.nLoad = ctrs.Handle(prefix + ".load")
	p.nPurged = ctrs.Handle(prefix + ".purged")
	p.nRemoved = ctrs.Handle(prefix + ".removed")
	p.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return p
}

// SetCorruptor implements Checker.
func (p *PIDRegisters) SetCorruptor(fn Corruptor) { p.corrupt = fn }

// Check implements Checker.
func (p *PIDRegisters) Check(g addr.GroupID) (bool, bool) {
	if g == addr.GlobalGroup {
		p.nHit.Inc()
		return true, false
	}
	for _, r := range p.regs {
		if r.valid && r.group == g {
			p.nHit.Inc()
			return true, r.writeDisable
		}
	}
	p.nMiss.Inc()
	return false, false
}

// Load implements Checker: round-robin replacement, since the hardware
// offers the OS no usage information (Section 3.2.2).
func (p *PIDRegisters) Load(g addr.GroupID, writeDisabled bool) {
	if p.corrupt != nil {
		if g2, wd2, ok := p.corrupt(g, writeDisabled); ok {
			g, writeDisabled = g2, wd2
			p.nCorrupted.Inc()
		}
	}
	// Reuse an existing slot for the same group, or an invalid slot.
	for i, r := range p.regs {
		if r.valid && r.group == g {
			p.regs[i].writeDisable = writeDisabled
			p.nLoad.Inc()
			return
		}
	}
	for i, r := range p.regs {
		if !r.valid {
			p.regs[i] = pidReg{group: g, writeDisable: writeDisabled, valid: true}
			p.nLoad.Inc()
			return
		}
	}
	p.regs[p.next] = pidReg{group: g, writeDisable: writeDisabled, valid: true}
	p.next = (p.next + 1) % len(p.regs)
	p.nLoad.Inc()
}

// Remove implements Checker. Removals are the group-revocation traffic
// of Section 4.1.1 and are counted under prefix+".removed".
func (p *PIDRegisters) Remove(g addr.GroupID) bool {
	for i, r := range p.regs {
		if r.valid && r.group == g {
			p.regs[i].valid = false
			p.nRemoved.Inc()
			return true
		}
	}
	return false
}

// PurgeAll implements Checker.
func (p *PIDRegisters) PurgeAll() int {
	n := 0
	for i := range p.regs {
		if p.regs[i].valid {
			p.regs[i].valid = false
			n++
		}
	}
	p.next = 0
	p.nPurged.Add(uint64(n))
	return n
}

// Len implements Checker.
func (p *PIDRegisters) Len() int {
	n := 0
	for _, r := range p.regs {
		if r.valid {
			n++
		}
	}
	return n
}

// Capacity implements Checker.
func (p *PIDRegisters) Capacity() int { return len(p.regs) }

// ForEach implements Checker.
func (p *PIDRegisters) ForEach(fn func(addr.GroupID, bool) bool) {
	for _, r := range p.regs {
		if r.valid && !fn(r.group, r.writeDisable) {
			return
		}
	}
}

// GroupCache is the Wilkes-Sears variant: an associative cache of
// permitted page-groups with LRU replacement.
type GroupCache struct {
	c *assoc.Cache[addr.GroupID, bool] // value: write-disable bit

	nHit, nMiss, nLoad stats.Handle
	nPurged, nRemoved  stats.Handle
	nCorrupted         stats.Handle

	corrupt Corruptor
}

// NewGroupCache creates a group cache with the given geometry, counting
// under prefix.
func NewGroupCache(cfg assoc.Config, ctrs *stats.Counters, prefix string) *GroupCache {
	g := &GroupCache{}
	g.c = assoc.New[addr.GroupID, bool](cfg, func(k addr.GroupID) uint64 { return uint64(k) })
	g.nHit = ctrs.Handle(prefix + ".hit")
	g.nMiss = ctrs.Handle(prefix + ".miss")
	g.nLoad = ctrs.Handle(prefix + ".load")
	g.nPurged = ctrs.Handle(prefix + ".purged")
	g.nRemoved = ctrs.Handle(prefix + ".removed")
	g.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return g
}

// SetCorruptor implements Checker.
func (g *GroupCache) SetCorruptor(fn Corruptor) { g.corrupt = fn }

// Check implements Checker.
func (g *GroupCache) Check(gid addr.GroupID) (bool, bool) {
	if gid == addr.GlobalGroup {
		g.nHit.Inc()
		return true, false
	}
	wd, ok := g.c.Lookup(gid)
	if ok {
		g.nHit.Inc()
		return true, wd
	}
	g.nMiss.Inc()
	return false, false
}

// Load implements Checker.
func (g *GroupCache) Load(gid addr.GroupID, writeDisabled bool) {
	if g.corrupt != nil {
		if gid2, wd2, ok := g.corrupt(gid, writeDisabled); ok {
			gid, writeDisabled = gid2, wd2
			g.nCorrupted.Inc()
		}
	}
	g.c.Insert(gid, writeDisabled)
	g.nLoad.Inc()
}

// Remove implements Checker. Removals are the group-revocation traffic
// of Section 4.1.1 and are counted under prefix+".removed".
func (g *GroupCache) Remove(gid addr.GroupID) bool {
	ok := g.c.Invalidate(gid)
	if ok {
		g.nRemoved.Inc()
	}
	return ok
}

// PurgeAll implements Checker.
func (g *GroupCache) PurgeAll() int {
	n := g.c.PurgeAll()
	g.nPurged.Add(uint64(n))
	return n
}

// Len implements Checker.
func (g *GroupCache) Len() int { return g.c.Len() }

// Capacity implements Checker.
func (g *GroupCache) Capacity() int { return g.c.Capacity() }

// ForEach implements Checker.
func (g *GroupCache) ForEach(fn func(addr.GroupID, bool) bool) { g.c.ForEach(fn) }
