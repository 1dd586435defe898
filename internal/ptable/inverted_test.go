package ptable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestInvertedMapLookupUnmap(t *testing.T) {
	it := MustInvertedTable(8)
	if err := it.Map(0x100, 3); err != nil {
		t.Fatal(err)
	}
	pte, ok := it.Lookup(0x100)
	if !ok || pte.PFN != 3 {
		t.Fatalf("Lookup = %+v,%v", pte, ok)
	}
	if _, ok := it.Lookup(0x101); ok {
		t.Fatal("phantom mapping")
	}
	got, err := it.Unmap(0x100)
	if err != nil || got.PFN != 3 {
		t.Fatalf("Unmap = %+v,%v", got, err)
	}
	if _, err := it.Unmap(0x100); err == nil {
		t.Fatal("double unmap succeeded")
	}
	if it.Len() != 0 {
		t.Fatalf("Len = %d", it.Len())
	}
}

func TestInvertedRejectsHomonymsAndSynonyms(t *testing.T) {
	it := MustInvertedTable(8)
	it.Map(1, 0)
	if err := it.Map(1, 1); err == nil {
		t.Fatal("homonym accepted")
	}
	if err := it.Map(2, 0); err == nil {
		t.Fatal("synonym (busy frame) accepted")
	}
	if err := it.Map(2, 99); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
}

func TestInvertedDirtyRef(t *testing.T) {
	it := MustInvertedTable(4)
	it.Map(7, 2)
	// Reference walks the chain once and counts one lookup.
	l0, _ := it.ProbeStats()
	ref, _ := it.Reference(7, false)
	if l1, _ := it.ProbeStats(); l1-l0 != 1 {
		t.Fatalf("Reference counted %d lookups, want 1", l1-l0)
	}
	pte, _ := it.Lookup(7)
	if !pte.Ref || pte.Dirty || ref != pte {
		t.Fatalf("after load Reference: returned %+v, table %+v", ref, pte)
	}
	ref, _ = it.Reference(7, true)
	if pte, _ := it.Lookup(7); !pte.Dirty || !pte.Ref || ref != pte {
		t.Fatalf("after store Reference: returned %+v, table %+v", ref, pte)
	}
	if !it.ClearDirty(7) || it.ClearDirty(7) {
		t.Fatal("ClearDirty semantics wrong")
	}
	// Referencing an unmapped page reports it and changes nothing.
	if pte, ok := it.Reference(99, true); ok || pte != (PTE{}) || it.Len() != 1 {
		t.Fatalf("Reference on unmapped page = %+v, %v; Len %d", pte, ok, it.Len())
	}
	if it.ClearDirty(99) {
		t.Fatal("ClearDirty on unmapped returned true")
	}
}

func TestInvertedFullTable(t *testing.T) {
	const frames = 64
	it := MustInvertedTable(frames)
	for i := 0; i < frames; i++ {
		// Adversarial VPNs: clustered to force chain collisions.
		if err := it.Map(addr.VPN(i*17), addr.PFN(i)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	if it.Len() != frames {
		t.Fatalf("Len = %d", it.Len())
	}
	for i := 0; i < frames; i++ {
		pte, ok := it.Lookup(addr.VPN(i * 17))
		if !ok || pte.PFN != addr.PFN(i) {
			t.Fatalf("lookup %d = %+v,%v", i, pte, ok)
		}
	}
	lookups, probes := it.ProbeStats()
	// Map's existence checks probe empty buckets for free, so probes may
	// trail lookups; the verification sweep's 64 hits cost >= 1 probe each.
	if lookups == 0 || probes < frames {
		t.Fatalf("probe stats = %d,%d", lookups, probes)
	}
	// Load factor 0.5 over 128 anchors: average chain stays short.
	if avg := float64(probes) / float64(lookups); avg > 3 {
		t.Errorf("average probes %f too high for 0.5 load", avg)
	}
}

// Property: the inverted table agrees with the map-based table across
// arbitrary operation sequences.
func TestInvertedMatchesMapTable(t *testing.T) {
	f := func(ops []uint16) bool {
		const frames = 32
		it := MustInvertedTable(frames)
		mt := NewTranslationTable()
		frameUsed := map[addr.PFN]bool{}
		vpnOf := map[addr.PFN]addr.VPN{}
		for i, op := range ops {
			vpn := addr.VPN(op % 64)
			pfn := addr.PFN(i % frames)
			switch op % 3 {
			case 0: // map if possible
				_, mappedIT := it.Lookup(vpn)
				if mappedIT || frameUsed[pfn] {
					continue
				}
				if err := it.Map(vpn, pfn); err != nil {
					return false
				}
				if err := mt.Map(vpn, pfn); err != nil {
					return false
				}
				frameUsed[pfn] = true
				vpnOf[pfn] = vpn
			case 1: // unmap
				_, ok := mt.Lookup(vpn)
				p1, e1 := it.Unmap(vpn)
				p2, e2 := mt.Unmap(vpn)
				if (e1 == nil) != ok || (e2 == nil) != ok {
					return false
				}
				if e1 == nil && p1.PFN != p2.PFN {
					return false
				}
				if e1 == nil {
					delete(frameUsed, p1.PFN)
					delete(vpnOf, p1.PFN)
				}
			case 2: // reference/lookup agreement
				r1, rok1 := it.Reference(vpn, true)
				r2, rok2 := mt.Reference(vpn, true)
				if rok1 != rok2 || r1 != r2 {
					return false
				}
				p1, ok1 := it.Lookup(vpn)
				p2, ok2 := mt.Lookup(vpn)
				if ok1 != ok2 {
					return false
				}
				if ok1 && (p1.PFN != p2.PFN || p1.Dirty != p2.Dirty) {
					return false
				}
			}
			if it.Len() != mt.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvertedNewValidation(t *testing.T) {
	it, err := NewInvertedTable(0)
	if err == nil {
		t.Fatal("NewInvertedTable accepted 0 frames")
	}
	if it != nil {
		t.Fatal("NewInvertedTable returned a table alongside the error")
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("error %v does not wrap ErrConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "nframes" {
		t.Fatalf("error %v is not a *ConfigError on nframes", err)
	}
	// MustInvertedTable converts the typed error into a panic.
	defer func() {
		if recover() == nil {
			t.Error("MustInvertedTable did not panic for 0 frames")
		}
	}()
	MustInvertedTable(0)
}
