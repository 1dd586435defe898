package ptable

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestTranslationTableMapLookup(t *testing.T) {
	tt := NewTranslationTable()
	if err := tt.Map(0x100, 7); err != nil {
		t.Fatal(err)
	}
	pte, ok := tt.Lookup(0x100)
	if !ok || pte.PFN != 7 {
		t.Fatalf("Lookup = %+v,%v", pte, ok)
	}
	if _, ok := tt.Lookup(0x101); ok {
		t.Fatal("phantom mapping")
	}
	if tt.Len() != 1 {
		t.Fatalf("Len = %d", tt.Len())
	}
}

func TestTranslationTableNoHomonyms(t *testing.T) {
	tt := NewTranslationTable()
	if err := tt.Map(0x100, 1); err != nil {
		t.Fatal(err)
	}
	// A second translation for the same VPN is a homonym: forbidden.
	if err := tt.Map(0x100, 2); err == nil {
		t.Fatal("remap of mapped vpn succeeded")
	}
}

func TestTranslationTableNoSynonyms(t *testing.T) {
	tt := NewTranslationTable()
	if err := tt.Map(0x100, 1); err != nil {
		t.Fatal(err)
	}
	// A second virtual page over the same frame is a synonym: forbidden.
	if err := tt.Map(0x200, 1); err == nil {
		t.Fatal("synonym mapping succeeded")
	}
	// After unmap, the frame may be remapped.
	if _, err := tt.Unmap(0x100); err != nil {
		t.Fatal(err)
	}
	if err := tt.Map(0x200, 1); err != nil {
		t.Fatalf("remap after unmap: %v", err)
	}
}

func TestTranslationTableUnmap(t *testing.T) {
	tt := NewTranslationTable()
	tt.Map(0x1, 9)
	pte, err := tt.Unmap(0x1)
	if err != nil || pte.PFN != 9 {
		t.Fatalf("Unmap = %+v,%v", pte, err)
	}
	if _, err := tt.Unmap(0x1); err == nil {
		t.Fatal("double unmap succeeded")
	}
	maps, unmaps := tt.Stats()
	if maps != 1 || unmaps != 1 {
		t.Fatalf("stats = %d,%d", maps, unmaps)
	}
}

func TestTranslationTableDirtyRef(t *testing.T) {
	tt := NewTranslationTable()
	tt.Map(0x1, 3)
	ref, _ := tt.Reference(0x1, false)
	pte, _ := tt.Lookup(0x1)
	if !pte.Ref || pte.Dirty || ref != pte {
		t.Fatalf("after load Reference: returned %+v, table %+v", ref, pte)
	}
	ref, _ = tt.Reference(0x1, true)
	pte, _ = tt.Lookup(0x1)
	if !pte.Dirty || !pte.Ref || ref != pte {
		t.Fatalf("after store Reference: returned %+v, table %+v", ref, pte)
	}
	if was := tt.ClearDirty(0x1); !was {
		t.Fatal("ClearDirty returned false for dirty page")
	}
	pte, _ = tt.Lookup(0x1)
	if pte.Dirty {
		t.Fatal("dirty bit not cleared")
	}
	if tt.ClearDirty(0x999) {
		t.Fatal("ClearDirty on unmapped page returned true")
	}
	// Referencing an unmapped page reports it and changes nothing.
	if pte, ok := tt.Reference(0x999, true); ok || pte != (PTE{}) || tt.Len() != 1 {
		t.Fatalf("Reference on unmapped page = %+v, %v; Len %d", pte, ok, tt.Len())
	}
}

// Property: any interleaving of valid map/unmap keeps the table internally
// consistent — every forward entry has a matching reverse entry.
func TestTranslationTableConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tt := NewTranslationTable()
		mapped := map[addr.VPN]addr.PFN{}
		for i, op := range ops {
			vpn := addr.VPN(op % 32)
			pfn := addr.PFN(i % 64)
			if _, ok := mapped[vpn]; ok {
				if _, err := tt.Unmap(vpn); err != nil {
					return false
				}
				delete(mapped, vpn)
			} else {
				// Skip if pfn already used by another vpn.
				inUse := false
				for _, p := range mapped {
					if p == pfn {
						inUse = true
						break
					}
				}
				if inUse {
					continue
				}
				if err := tt.Map(vpn, pfn); err != nil {
					return false
				}
				mapped[vpn] = pfn
			}
			if tt.Len() != len(mapped) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinearTableRegions(t *testing.T) {
	lt := NewLinearTable()
	if err := lt.AddRegion(0x100, 16); err != nil {
		t.Fatal(err)
	}
	if err := lt.AddRegion(0x108, 4); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := lt.AddRegion(0x200, 8); err != nil {
		t.Fatal(err)
	}
	if lt.SlotCount() != 24 {
		t.Fatalf("SlotCount = %d", lt.SlotCount())
	}
	if lt.MappedCount() != 0 {
		t.Fatal("fresh table has mappings")
	}
}

func TestLinearTableMapWalk(t *testing.T) {
	lt := NewLinearTable()
	lt.AddRegion(0x10, 8)
	if err := lt.Map(0x12, 5, addr.RW); err != nil {
		t.Fatal(err)
	}
	if err := lt.Map(0x99, 5, addr.RW); err == nil {
		t.Fatal("map outside regions succeeded")
	}
	pte, ok := lt.Walk(0x12)
	if !ok || pte.PFN != 5 || pte.Rights != addr.RW {
		t.Fatalf("Walk = %+v,%v", pte, ok)
	}
	if !pte.Ref {
		t.Fatal("Walk did not set ref")
	}
	if _, ok := lt.Walk(0x13); ok {
		t.Fatal("walk of unmapped slot hit")
	}
	if lt.Walks() != 2 {
		t.Fatalf("Walks = %d", lt.Walks())
	}
	if lt.MappedCount() != 1 {
		t.Fatalf("MappedCount = %d", lt.MappedCount())
	}
}

func TestLinearTableRightsAndUnmap(t *testing.T) {
	lt := NewLinearTable()
	lt.AddRegion(0, 4)
	lt.Map(1, 1, addr.Read)
	if err := lt.SetRights(1, addr.RW); err != nil {
		t.Fatal(err)
	}
	pte, _ := lt.Walk(1)
	if pte.Rights != addr.RW {
		t.Fatal("SetRights lost")
	}
	if err := lt.SetRights(2, addr.RW); err == nil {
		t.Fatal("SetRights on unmapped succeeded")
	}
	lt.SetDirty(1)
	pte, _ = lt.Walk(1)
	if !pte.Dirty {
		t.Fatal("SetDirty lost")
	}
	if !lt.Unmap(1) {
		t.Fatal("Unmap returned false")
	}
	if lt.Unmap(1) {
		t.Fatal("double Unmap returned true")
	}
	if lt.SlotCount() != 4 {
		t.Fatal("Unmap changed slot count")
	}
}

func TestProtTable(t *testing.T) {
	pt := NewProtTable()
	if _, ok := pt.Get(1); ok {
		t.Fatal("phantom override")
	}
	pt.Set(1, addr.Read)
	pt.Set(2, addr.RW)
	if r, ok := pt.Get(1); !ok || r != addr.Read {
		t.Fatalf("Get = %v,%v", r, ok)
	}
	if pt.Len() != 2 {
		t.Fatalf("Len = %d", pt.Len())
	}
	if !pt.Clear(1) || pt.Clear(1) {
		t.Fatal("Clear semantics wrong")
	}
	// None is a meaningful override (explicit denial), distinct from absent.
	pt.Set(3, addr.None)
	if r, ok := pt.Get(3); !ok || r != addr.None {
		t.Fatal("explicit None override lost")
	}
}

func TestProtTableClearRange(t *testing.T) {
	pt := NewProtTable()
	for vpn := addr.VPN(10); vpn < 20; vpn++ {
		pt.Set(vpn, addr.RW)
	}
	pt.Set(25, addr.Read)
	if n := pt.ClearRange(12, 4); n != 4 {
		t.Fatalf("ClearRange = %d", n)
	}
	if pt.Len() != 7 {
		t.Fatalf("Len = %d", pt.Len())
	}
	count := 0
	pt.ForEach(func(addr.VPN, addr.Rights) bool { count++; return true })
	if count != 7 {
		t.Fatalf("ForEach visited %d", count)
	}
}
