package ptable

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// ErrConfig classifies invalid page-table configurations. errors.Is
// matches every construction failure; errors.As extracts the
// *ConfigError carrying the offending parameter.
var ErrConfig = errors.New("ptable: invalid config")

// ConfigError is the structured form of a rejected configuration,
// following the kernel.FaultError convention: context fields plus a
// classifying sentinel, reachable through errors.Is/As.
type ConfigError struct {
	// Field names the rejected parameter.
	Field string
	// Detail says what was wrong with it.
	Detail string
	// Sentinel classifies the failure (ErrConfig).
	Sentinel error
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Sentinel.Error(), e.Field, e.Detail)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *ConfigError) Unwrap() error { return e.Sentinel }

// InvertedTable is an inverted (frame-indexed) page table with a hash
// anchor table — the organization of the IBM 801 that Section 3.1 cites
// as well suited to single address space systems: its size is
// proportional to physical memory, not to the (vast, sparse) virtual
// space, and it holds exactly one entry per mapped page, shared by all
// protection domains.
//
// Lookup hashes the VPN into the anchor table and follows the collision
// chain through the frame entries; the probe counts expose the software
// walk cost as the table loads up.
type InvertedTable struct {
	anchors []int32 // hash bucket -> entry index (frame), -1 if empty
	entries []invEntry
	next    []int32 // collision chain, indexed by frame

	size    int
	maps    uint64
	unmaps  uint64
	lookups uint64
	probes  uint64
}

type invEntry struct {
	vpn   addr.VPN
	valid bool
	dirty bool
	ref   bool
}

// NewInvertedTable creates a table for nframes physical frames with
// 2*nframes hash anchors (load factor <= 0.5 when full). A frame count
// below one returns a *ConfigError wrapping ErrConfig; MustInvertedTable
// panics instead for known-good counts.
func NewInvertedTable(nframes int) (*InvertedTable, error) {
	if nframes < 1 {
		return nil, &ConfigError{
			Field:    "nframes",
			Detail:   fmt.Sprintf("inverted table needs at least one frame, got %d", nframes),
			Sentinel: ErrConfig,
		}
	}
	nAnchors := 2 * nframes
	t := &InvertedTable{
		anchors: make([]int32, nAnchors),
		entries: make([]invEntry, nframes),
		next:    make([]int32, nframes),
	}
	for i := range t.anchors {
		t.anchors[i] = -1
	}
	for i := range t.next {
		t.next[i] = -1
	}
	return t, nil
}

// MustInvertedTable is NewInvertedTable for frame counts known to be
// valid; it panics on a config error.
func MustInvertedTable(nframes int) *InvertedTable {
	t, err := NewInvertedTable(nframes)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *InvertedTable) bucket(vpn addr.VPN) int {
	h := uint64(vpn)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(t.anchors)))
}

// Map establishes vpn → pfn. One translation per page and one page per
// frame, as in any single address space table.
func (t *InvertedTable) Map(vpn addr.VPN, pfn addr.PFN) error {
	if int(pfn) >= len(t.entries) {
		return fmt.Errorf("ptable: frame %d outside inverted table (%d frames)", pfn, len(t.entries))
	}
	if t.entries[pfn].valid {
		return fmt.Errorf("ptable: frame %d already holds vpn %#x", pfn, uint64(t.entries[pfn].vpn))
	}
	if _, ok := t.Lookup(vpn); ok {
		return fmt.Errorf("ptable: vpn %#x already mapped", uint64(vpn))
	}
	b := t.bucket(vpn)
	t.entries[pfn] = invEntry{vpn: vpn, valid: true}
	t.next[pfn] = t.anchors[b]
	t.anchors[b] = int32(pfn)
	t.size++
	t.maps++
	return nil
}

// find returns the frame holding vpn and its chain predecessor (-1 if at
// the anchor), counting probes.
func (t *InvertedTable) find(vpn addr.VPN) (frame, prev int32) {
	b := t.bucket(vpn)
	prev = -1
	for cur := t.anchors[b]; cur != -1; cur = t.next[cur] {
		t.probes++
		if t.entries[cur].valid && t.entries[cur].vpn == vpn {
			return cur, prev
		}
		prev = cur
	}
	return -1, -1
}

// Lookup returns the translation for vpn.
func (t *InvertedTable) Lookup(vpn addr.VPN) (PTE, bool) {
	t.lookups++
	f, _ := t.find(vpn)
	if f == -1 {
		return PTE{}, false
	}
	e := t.entries[f]
	return PTE{PFN: addr.PFN(f), Dirty: e.dirty, Ref: e.ref}, true
}

// Unmap removes the translation for vpn.
func (t *InvertedTable) Unmap(vpn addr.VPN) (PTE, error) {
	t.lookups++
	f, prev := t.find(vpn)
	if f == -1 {
		return PTE{}, fmt.Errorf("ptable: vpn %#x not mapped", uint64(vpn))
	}
	e := t.entries[f]
	if prev == -1 {
		t.anchors[t.bucket(vpn)] = t.next[f]
	} else {
		t.next[prev] = t.next[f]
	}
	t.entries[f] = invEntry{}
	t.next[f] = -1
	t.size--
	t.unmaps++
	return PTE{PFN: addr.PFN(f), Dirty: e.dirty, Ref: e.ref}, nil
}

// Reference sets the reference bit for vpn, and the dirty bit too for a
// store, and returns the updated entry. It walks the chain once and
// counts one lookup. ok is false, and nothing changes, when vpn is not
// mapped.
func (t *InvertedTable) Reference(vpn addr.VPN, store bool) (PTE, bool) {
	t.lookups++
	f, _ := t.find(vpn)
	if f == -1 {
		return PTE{}, false
	}
	e := &t.entries[f]
	e.ref = true
	e.dirty = e.dirty || store
	return PTE{PFN: addr.PFN(f), Dirty: e.dirty, Ref: e.ref}, true
}

// ClearDirty clears the dirty bit, returning its prior value.
func (t *InvertedTable) ClearDirty(vpn addr.VPN) bool {
	t.lookups++
	f, _ := t.find(vpn)
	if f == -1 {
		return false
	}
	was := t.entries[f].dirty
	t.entries[f].dirty = false
	return was
}

// Len returns the number of mapped pages.
func (t *InvertedTable) Len() int { return t.size }

// Stats returns map/unmap operation counts.
func (t *InvertedTable) Stats() (maps, unmaps uint64) { return t.maps, t.unmaps }

// ProbeStats returns total table operations (lookups, dirty/ref updates)
// and chain probes; probes/lookups is the software walk cost as load
// rises.
func (t *InvertedTable) ProbeStats() (lookups, probes uint64) { return t.lookups, t.probes }
