// Package tlb implements the three translation lookaside buffer
// organizations the paper contrasts:
//
//   - TransTLB: a translation-only TLB holding one entry per virtual page
//     with no protection information. In the PLB machine (Figure 1) it
//     sits at the second level, off the critical path, consulted only on
//     data cache misses and writebacks. Domain switches never purge it.
//
//   - ASIDTLB: a conventional combined TLB tagged with an address space
//     identifier, as on MIPS or Alpha (Section 3.1). Shared pages consume
//     one entry per domain even though the translation is identical —
//     the duplication the paper criticizes.
//
//   - PGTLB: a PA-RISC style TLB whose entries carry the physical
//     translation, the page's access identifier (AID, its page-group
//     number) and a rights field shared by all domains (Figure 2). It is
//     on-chip and consulted on every reference.
package tlb

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// TransEntry is a translation-only TLB entry: VPN → PFN. Dirty/reference
// bits stay in the kernel's translation table (Section 3.2.1 footnote 6).
type TransEntry struct {
	PFN addr.PFN
}

// TransTLB is the translation-only TLB of the PLB machine.
type TransTLB struct {
	c *assoc.Cache[addr.VPN, TransEntry]

	nHit, nMiss, nInstall, nInvalidated stats.Handle
	nCorrupted                          stats.Handle

	corrupt func(vpn addr.VPN, e TransEntry, evicted bool) (TransEntry, bool)
}

// NewTrans creates a translation-only TLB counting under prefix. Counter
// names resolve to handles once here, keeping the per-access path free of
// name hashing.
func NewTrans(cfg assoc.Config, ctrs *stats.Counters, prefix string) *TransTLB {
	t := &TransTLB{}
	t.c = assoc.New[addr.VPN, TransEntry](cfg, func(v addr.VPN) uint64 { return uint64(v) })
	t.nHit = ctrs.Handle(prefix + ".hit")
	t.nMiss = ctrs.Handle(prefix + ".miss")
	t.nInstall = ctrs.Handle(prefix + ".install")
	t.nInvalidated = ctrs.Handle(prefix + ".invalidated")
	t.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return t
}

// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
// consulted on every Insert; returning a replacement entry with true
// corrupts the installed translation in place (a stale or flipped PFN).
// Corrupted installs are counted under prefix+".corrupted".
func (t *TransTLB) SetCorruptor(fn func(vpn addr.VPN, e TransEntry, evicted bool) (TransEntry, bool)) {
	t.corrupt = fn
}

// Lookup probes for vpn.
func (t *TransTLB) Lookup(vpn addr.VPN) (TransEntry, bool) {
	e, ok := t.c.Lookup(vpn)
	if ok {
		t.nHit.Inc()
	} else {
		t.nMiss.Inc()
	}
	return e, ok
}

// Insert installs a translation.
func (t *TransTLB) Insert(vpn addr.VPN, e TransEntry) {
	_, _, evicted := t.c.Insert(vpn, e)
	t.nInstall.Inc()
	if t.corrupt != nil {
		if bad, ok := t.corrupt(vpn, e, evicted); ok {
			t.c.Update(vpn, bad)
			t.nCorrupted.Inc()
		}
	}
}

// Invalidate removes the entry for vpn; required only when a
// virtual-to-physical translation is destroyed.
func (t *TransTLB) Invalidate(vpn addr.VPN) bool {
	ok := t.c.Invalidate(vpn)
	if ok {
		t.nInvalidated.Inc()
	}
	return ok
}

// PurgeAll empties the TLB (never required by domain switches on the PLB
// machine; present for completeness and failure-injection tests).
func (t *TransTLB) PurgeAll() int { return t.c.PurgeAll() }

// Len returns the number of resident entries.
func (t *TransTLB) Len() int { return t.c.Len() }

// Capacity returns the entry capacity.
func (t *TransTLB) Capacity() int { return t.c.Capacity() }

// ForEach visits all resident entries until fn returns false.
func (t *TransTLB) ForEach(fn func(addr.VPN, TransEntry) bool) { t.c.ForEach(fn) }

// ASIDKey tags a combined-TLB entry with its address space.
type ASIDKey struct {
	AS  addr.ASID
	VPN addr.VPN
}

// ASIDEntry is a conventional combined TLB entry: translation + rights.
type ASIDEntry struct {
	PFN    addr.PFN
	Rights addr.Rights
}

// ASIDTLB is the conventional, address-space-tagged combined TLB.
type ASIDTLB struct {
	c *assoc.Cache[ASIDKey, ASIDEntry]

	nHit, nMiss, nInstall, nPurged stats.Handle
	nInvalidated                   stats.Handle
	nInspected                     stats.Handle
	nCorrupted                     stats.Handle

	corrupt func(k ASIDKey, e ASIDEntry, evicted bool) (ASIDEntry, bool)
}

// NewASID creates an ASID-tagged TLB counting under prefix.
func NewASID(cfg assoc.Config, ctrs *stats.Counters, prefix string) *ASIDTLB {
	t := &ASIDTLB{}
	t.c = assoc.New[ASIDKey, ASIDEntry](cfg, func(k ASIDKey) uint64 {
		return uint64(k.VPN) ^ uint64(k.AS)<<17
	})
	t.nHit = ctrs.Handle(prefix + ".hit")
	t.nMiss = ctrs.Handle(prefix + ".miss")
	t.nInstall = ctrs.Handle(prefix + ".install")
	t.nPurged = ctrs.Handle(prefix + ".purged")
	t.nInvalidated = ctrs.Handle(prefix + ".invalidated")
	t.nInspected = ctrs.Handle(prefix + ".inspected")
	t.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return t
}

// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
// consulted on every Insert; returning a replacement entry with true
// corrupts the installed entry in place (stale or flipped rights/PFN).
// Corrupted installs are counted under prefix+".corrupted".
func (t *ASIDTLB) SetCorruptor(fn func(k ASIDKey, e ASIDEntry, evicted bool) (ASIDEntry, bool)) {
	t.corrupt = fn
}

// Lookup probes for (as, vpn).
func (t *ASIDTLB) Lookup(as addr.ASID, vpn addr.VPN) (ASIDEntry, bool) {
	k := ASIDKey{AS: as, VPN: vpn}
	e, ok := t.c.Lookup(k)
	if ok {
		t.nHit.Inc()
	} else {
		t.nMiss.Inc()
	}
	return e, ok
}

// Insert installs an entry for (as, vpn).
func (t *ASIDTLB) Insert(as addr.ASID, vpn addr.VPN, e ASIDEntry) {
	k := ASIDKey{AS: as, VPN: vpn}
	_, _, evicted := t.c.Insert(k, e)
	t.nInstall.Inc()
	if t.corrupt != nil {
		if bad, ok := t.corrupt(k, e, evicted); ok {
			t.c.Update(k, bad)
			t.nCorrupted.Inc()
		}
	}
}

// Invalidate removes the entry for (as, vpn).
func (t *ASIDTLB) Invalidate(as addr.ASID, vpn addr.VPN) bool {
	ok := t.c.Invalidate(ASIDKey{AS: as, VPN: vpn})
	if ok {
		t.nInvalidated.Inc()
	}
	return ok
}

// PurgePage removes every address space's entry for vpn. On a conventional
// architecture a mapping change for a shared page must find and purge each
// duplicate; the inspection cost is the scan the paper warns about.
func (t *ASIDTLB) PurgePage(vpn addr.VPN) int {
	removed, inspected := t.c.PurgeIf(func(k ASIDKey, _ ASIDEntry) bool { return k.VPN == vpn })
	t.nPurged.Add(uint64(removed))
	t.nInspected.Add(uint64(inspected))
	return removed
}

// PurgeAS removes all entries of one address space.
func (t *ASIDTLB) PurgeAS(as addr.ASID) int {
	removed, inspected := t.c.PurgeIf(func(k ASIDKey, _ ASIDEntry) bool { return k.AS == as })
	t.nPurged.Add(uint64(removed))
	t.nInspected.Add(uint64(inspected))
	return removed
}

// PurgeAll empties the TLB (the no-ASID "flush machine" does this on
// every context switch).
func (t *ASIDTLB) PurgeAll() int {
	n := t.c.PurgeAll()
	t.nPurged.Add(uint64(n))
	return n
}

// Len returns the number of resident entries.
func (t *ASIDTLB) Len() int { return t.c.Len() }

// Capacity returns the entry capacity.
func (t *ASIDTLB) Capacity() int { return t.c.Capacity() }

// ForEach visits all resident entries until fn returns false.
func (t *ASIDTLB) ForEach(fn func(ASIDKey, ASIDEntry) bool) { t.c.ForEach(fn) }

// ResidentFor counts resident entries for vpn across all address spaces —
// the duplication measure of experiment E5.
func (t *ASIDTLB) ResidentFor(vpn addr.VPN) int {
	n := 0
	t.c.ForEach(func(k ASIDKey, _ ASIDEntry) bool {
		if k.VPN == vpn {
			n++
		}
		return true
	})
	return n
}

// PGEntry is a PA-RISC style TLB entry: translation plus the page's
// access identifier and the rights shared by every domain with access to
// the page's group (Figure 2).
type PGEntry struct {
	PFN    addr.PFN
	AID    addr.GroupID
	Rights addr.Rights
}

// PGTLB is the page-group TLB. One entry per page serves all domains.
type PGTLB struct {
	c *assoc.Cache[addr.VPN, PGEntry]

	nHit, nMiss, nInstall, nUpdate, nInvalidated stats.Handle
	nCorrupted                                   stats.Handle

	corrupt func(vpn addr.VPN, e PGEntry, evicted bool) (PGEntry, bool)
}

// NewPG creates a page-group TLB counting under prefix.
func NewPG(cfg assoc.Config, ctrs *stats.Counters, prefix string) *PGTLB {
	t := &PGTLB{}
	t.c = assoc.New[addr.VPN, PGEntry](cfg, func(v addr.VPN) uint64 { return uint64(v) })
	t.nHit = ctrs.Handle(prefix + ".hit")
	t.nMiss = ctrs.Handle(prefix + ".miss")
	t.nInstall = ctrs.Handle(prefix + ".install")
	t.nUpdate = ctrs.Handle(prefix + ".update")
	t.nInvalidated = ctrs.Handle(prefix + ".invalidated")
	t.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return t
}

// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
// consulted on every Insert; returning a replacement entry with true
// corrupts the installed entry in place (stale AID, flipped rights, bad
// PFN). Corrupted installs are counted under prefix+".corrupted".
func (t *PGTLB) SetCorruptor(fn func(vpn addr.VPN, e PGEntry, evicted bool) (PGEntry, bool)) {
	t.corrupt = fn
}

// Lookup probes for vpn.
func (t *PGTLB) Lookup(vpn addr.VPN) (PGEntry, bool) {
	e, ok := t.c.Lookup(vpn)
	if ok {
		t.nHit.Inc()
	} else {
		t.nMiss.Inc()
	}
	return e, ok
}

// Insert installs an entry for vpn.
func (t *PGTLB) Insert(vpn addr.VPN, e PGEntry) {
	_, _, evicted := t.c.Insert(vpn, e)
	t.nInstall.Inc()
	if t.corrupt != nil {
		if bad, ok := t.corrupt(vpn, e, evicted); ok {
			t.c.Update(vpn, bad)
			t.nCorrupted.Inc()
		}
	}
}

// Update rewrites the resident entry for vpn (changing its rights or
// moving it to another page-group) without disturbing replacement state,
// reporting whether it was resident. This is the "single TLB entry"
// update of Section 4.1.2.
func (t *PGTLB) Update(vpn addr.VPN, e PGEntry) bool {
	ok := t.c.Update(vpn, e)
	if ok {
		t.nUpdate.Inc()
	}
	return ok
}

// Invalidate removes the entry for vpn.
func (t *PGTLB) Invalidate(vpn addr.VPN) bool {
	ok := t.c.Invalidate(vpn)
	if ok {
		t.nInvalidated.Inc()
	}
	return ok
}

// PurgeAll empties the TLB.
func (t *PGTLB) PurgeAll() int { return t.c.PurgeAll() }

// Len returns the number of resident entries.
func (t *PGTLB) Len() int { return t.c.Len() }

// Capacity returns the entry capacity.
func (t *PGTLB) Capacity() int { return t.c.Capacity() }

// ForEach visits all resident entries until fn returns false.
func (t *PGTLB) ForEach(fn func(addr.VPN, PGEntry) bool) { t.c.ForEach(fn) }

// EntryBits returns the architectural width in bits of a combined
// (translation + protection) TLB entry for the equal-silicon comparison
// of Section 4: VPN tag + PFN + AID/rights or ASID as given.
func EntryBits(vaBits, pageShift, paBits, extraBits int) int {
	return (vaBits - pageShift) + (paBits - pageShift) + extraBits
}
