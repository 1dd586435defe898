package kernel

import (
	"fmt"
	"sort"

	"repro/internal/addr"
)

// Virtual address space management. Segment ranges come first from a
// free list of previously released ranges (first-fit with alignment,
// coalescing on release) and then from a bump pointer. A single address
// space system must manage its one address space as a durable resource:
// segments come and go, but ranges must never overlap while live.
//
// Note on reuse: Opal-style systems may choose never to recycle virtual
// addresses (so dangling pointers can be detected); this kernel recycles
// by default for completeness. Systems wanting unique-forever addresses
// simply never call DestroySegment.

// ErrSegmentBusy is returned when destroying a segment that still has
// attached domains.
var ErrSegmentBusy = fmt.Errorf("kernel: segment still attached")

// allocVA finds a range of the given length, aligned to 2^alignShift
// bytes (0 = page aligned), reusing freed ranges when possible.
func (k *Kernel) allocVA(length uint64, alignShift uint) addr.VA {
	align := uint64(1)
	if alignShift > 0 {
		align = 1 << alignShift
	}
	// First fit in the free list, accounting for alignment slack.
	for i, f := range k.freeVA {
		start := (uint64(f.Start) + align - 1) &^ (align - 1)
		if start+length > uint64(f.End()) || start+length < start {
			continue
		}
		// Carve [start, start+length) out of f; return the head and
		// tail fragments to the list.
		k.freeVA = append(k.freeVA[:i], k.freeVA[i+1:]...)
		if head := start - uint64(f.Start); head > 0 {
			k.freeVAInsert(addr.Range{Start: f.Start, Length: head})
		}
		if tail := uint64(f.End()) - (start + length); tail > 0 {
			k.freeVAInsert(addr.Range{Start: addr.VA(start + length), Length: tail})
		}
		k.hVAReuse.Inc()
		return addr.VA(start)
	}
	// Bump allocation.
	base := (uint64(k.nextVA) + align - 1) &^ (align - 1)
	if head := base - uint64(k.nextVA); head > 0 {
		k.freeVAInsert(addr.Range{Start: k.nextVA, Length: head})
	}
	k.nextVA = addr.VA(base + length)
	return addr.VA(base)
}

// freeVAInsert adds a range to the free list, coalescing with neighbors.
func (k *Kernel) freeVAInsert(r addr.Range) {
	if r.Length == 0 {
		return
	}
	i := sort.Search(len(k.freeVA), func(i int) bool { return k.freeVA[i].Start > r.Start })
	k.freeVA = append(k.freeVA, addr.Range{})
	copy(k.freeVA[i+1:], k.freeVA[i:])
	k.freeVA[i] = r
	// Coalesce with successor, then predecessor.
	if i+1 < len(k.freeVA) && k.freeVA[i].End() == k.freeVA[i+1].Start {
		k.freeVA[i].Length += k.freeVA[i+1].Length
		k.freeVA = append(k.freeVA[:i+1], k.freeVA[i+2:]...)
	}
	if i > 0 && k.freeVA[i-1].End() == k.freeVA[i].Start {
		k.freeVA[i-1].Length += k.freeVA[i].Length
		k.freeVA = append(k.freeVA[:i], k.freeVA[i+1:]...)
	}
}

// FreeVARanges returns a copy of the current free list (for tests and
// diagnostics).
func (k *Kernel) FreeVARanges() []addr.Range {
	return append([]addr.Range(nil), k.freeVA...)
}

// DestroySegment releases a segment: every domain must have detached
// first. Mapped pages are unmapped (frames freed, caches flushed, TLB
// entries invalidated), page records and page-group state are dropped,
// and the address range returns to the free list for reuse.
func (k *Kernel) DestroySegment(s *Segment) error {
	if len(s.attached) > 0 {
		return fmt.Errorf("%w: %q has %d attachments", ErrSegmentBusy, s.Name, len(s.attached))
	}
	if _, ok := k.segments[s.ID]; !ok {
		return fmt.Errorf("kernel: segment %d already destroyed", s.ID)
	}
	for i := uint64(0); i < s.NumPages(); i++ {
		vpn := s.PageVPN(i)
		if k.Mapped(vpn) {
			if err := k.Unmap(vpn); err != nil {
				return err
			}
		}
		k.pageTab.remove(vpn)
	}
	delete(k.segments, s.ID)
	for i, seg := range k.segOrder {
		if seg == s {
			k.segOrder = append(k.segOrder[:i], k.segOrder[i+1:]...)
			break
		}
	}
	k.engine.onDestroySegment(s)
	k.flushIPIs()
	// Drop the range's sharer records only after the destroy shootdowns
	// used them for targeting: a stale pageDir set here would otherwise
	// outlive the segment and misdirect IPIs when the range is reused.
	for i := uint64(0); i < s.NumPages(); i++ {
		delete(k.pageDir, s.PageVPN(i))
	}
	s.pageRecs = nil
	k.freeVAInsert(s.Range)
	k.hSegsDestroyed.Inc()
	return nil
}
