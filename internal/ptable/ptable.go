// Package ptable implements the operating system's authoritative virtual
// memory data structures, in the two organizations Section 3.1 of the
// paper contrasts:
//
//   - The single-address-space-friendly split: one global TranslationTable
//     shared by all protection domains (one entry per mapped virtual page,
//     no duplication) plus a sparse per-domain ProtTable of access rights.
//
//   - The conventional organization: a per-address-space LinearTable that
//     stores translation and protection together, duplicating shared
//     mappings in every address space and wasting slots on sparse views.
package ptable

import (
	"fmt"

	"repro/internal/addr"
)

// PTE is a translation entry in the global table: the unique mapping for a
// virtual page, plus the dirty and reference bits, which belong with the
// translation (they are per-page facts, not per-domain facts — Section
// 3.2.1, footnote 6).
type PTE struct {
	PFN   addr.PFN
	Dirty bool
	Ref   bool
}

// TranslationTable is the global virtual-to-physical mapping of a single
// address space system. By construction it admits exactly one translation
// per virtual page: homonyms cannot be represented at all, which mirrors
// the paper's observation that they cannot occur in such a system.
type TranslationTable struct {
	entries map[addr.VPN]PTE
	rmap    map[addr.PFN]addr.VPN // reverse map; enforces no synonyms
	maps    uint64
	unmaps  uint64
}

// NewTranslationTable creates an empty global translation table.
func NewTranslationTable() *TranslationTable {
	return &TranslationTable{
		entries: make(map[addr.VPN]PTE),
		rmap:    make(map[addr.PFN]addr.VPN),
	}
}

// Map establishes vpn → pfn. It is an error to remap an already mapped
// page (translations are unique; changing one requires an explicit Unmap,
// which has architectural cost) or to map two pages to one frame (the
// kernel never creates physical synonyms in a single address space).
func (t *TranslationTable) Map(vpn addr.VPN, pfn addr.PFN) error {
	if old, ok := t.entries[vpn]; ok {
		return fmt.Errorf("ptable: vpn %#x already mapped to pfn %d", uint64(vpn), old.PFN)
	}
	if prior, ok := t.rmap[pfn]; ok {
		return fmt.Errorf("ptable: pfn %d already mapped by vpn %#x (synonym forbidden)", pfn, uint64(prior))
	}
	t.entries[vpn] = PTE{PFN: pfn}
	t.rmap[pfn] = vpn
	t.maps++
	return nil
}

// Unmap removes the translation for vpn, returning the old entry.
func (t *TranslationTable) Unmap(vpn addr.VPN) (PTE, error) {
	pte, ok := t.entries[vpn]
	if !ok {
		return PTE{}, fmt.Errorf("ptable: vpn %#x not mapped", uint64(vpn))
	}
	delete(t.entries, vpn)
	delete(t.rmap, pte.PFN)
	t.unmaps++
	return pte, nil
}

// Lookup returns the translation for vpn.
func (t *TranslationTable) Lookup(vpn addr.VPN) (PTE, bool) {
	pte, ok := t.entries[vpn]
	return pte, ok
}

// Reference records one hardware-approved reference to vpn: it sets the
// reference bit, and the dirty bit too for a store, and returns the
// updated entry, in one probe. The map write is skipped when the bits
// are already set, since every warm access lands here. ok is false, and
// nothing changes, when vpn is not mapped.
func (t *TranslationTable) Reference(vpn addr.VPN, store bool) (PTE, bool) {
	pte, ok := t.entries[vpn]
	if !ok {
		return PTE{}, false
	}
	if !pte.Ref || (store && !pte.Dirty) {
		pte.Ref = true
		pte.Dirty = pte.Dirty || store
		t.entries[vpn] = pte
	}
	return pte, true
}

// ClearDirty clears the dirty bit for vpn and returns its prior value.
func (t *TranslationTable) ClearDirty(vpn addr.VPN) bool {
	pte, ok := t.entries[vpn]
	if !ok {
		return false
	}
	was := pte.Dirty
	pte.Dirty = false
	t.entries[vpn] = pte
	return was
}

// Len returns the number of mapped pages.
func (t *TranslationTable) Len() int { return len(t.entries) }

// Stats returns map/unmap operation counts.
func (t *TranslationTable) Stats() (maps, unmaps uint64) { return t.maps, t.unmaps }

// ForEach visits every mapping until fn returns false.
func (t *TranslationTable) ForEach(fn func(addr.VPN, PTE) bool) {
	for vpn, pte := range t.entries {
		if !fn(vpn, pte) {
			return
		}
	}
}
