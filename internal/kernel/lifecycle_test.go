package kernel_test

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

var lifecycleModels = []kernel.Model{
	kernel.ModelDomainPage, kernel.ModelPageGroup,
	kernel.ModelConventional, kernel.ModelFlush,
}

// TestDomainIDExhaustion drives the allocator to the (narrowed) end of
// the ID space: the failure must be the typed error, not a wrap onto a
// live ID, and destroying any domain must make creation work again with
// the freed ID recycled LIFO.
func TestDomainIDExhaustion(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	k.SetIDLimits(8, 0)
	var doms []*kernel.Domain
	for {
		d, err := k.CreateDomainChecked()
		if err != nil {
			if !errors.Is(err, kernel.ErrDomainIDsExhausted) {
				t.Fatalf("exhaustion error = %v, want ErrDomainIDsExhausted", err)
			}
			break
		}
		doms = append(doms, d)
		if len(doms) > 8 {
			t.Fatalf("allocator minted %d IDs past the limit of 8", len(doms))
		}
	}
	if len(doms) != 8 {
		t.Fatalf("minted %d IDs before exhaustion, want 8", len(doms))
	}
	victim := doms[3]
	if err := k.DestroyDomain(victim); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if k.FreeDomainIDs() != 1 {
		t.Fatalf("free list holds %d IDs, want 1", k.FreeDomainIDs())
	}
	d, err := k.CreateDomainChecked()
	if err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
	if d.ID != victim.ID {
		t.Fatalf("recycled ID %d, want LIFO reuse of %d", d.ID, victim.ID)
	}
}

// TestGroupIDExhaustion does the same for the page-group namespace:
// every segment needs a primary group, so a narrowed group space bounds
// segment creation with the typed error, and destroying a segment
// recycles its number.
func TestGroupIDExhaustion(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
	k.SetIDLimits(0, 4)
	var segs []*kernel.Segment
	for {
		s, err := k.CreateSegmentChecked(1, kernel.SegmentOptions{})
		if err != nil {
			if !errors.Is(err, kernel.ErrGroupIDsExhausted) {
				t.Fatalf("exhaustion error = %v, want ErrGroupIDsExhausted", err)
			}
			break
		}
		segs = append(segs, s)
		if len(segs) > 8 {
			t.Fatal("group allocator never exhausted")
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment created before exhaustion")
	}
	if err := k.DestroySegment(segs[0]); err != nil {
		t.Fatalf("DestroySegment: %v", err)
	}
	if k.FreeGroupIDs() == 0 {
		t.Fatal("destroyed segment's group not on the free list")
	}
	if _, err := k.CreateSegmentChecked(1, kernel.SegmentOptions{}); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
}

// TestStaleHandles: operations on a destroyed domain's handle must fail
// with the typed error — double destroy, fork of a corpse, and a handle
// from before the ID was recycled must all be rejected.
func TestStaleHandles(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	d := k.CreateDomain()
	if err := k.DestroyDomain(d); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if err := k.DestroyDomain(d); !errors.Is(err, kernel.ErrDomainDestroyed) {
		t.Fatalf("double destroy = %v, want ErrDomainDestroyed", err)
	}
	if _, err := k.ForkDomain(d); !errors.Is(err, kernel.ErrDomainDestroyed) {
		t.Fatalf("fork of corpse = %v, want ErrDomainDestroyed", err)
	}
	// Recycle the ID into a new incarnation: the old handle stays dead
	// even though the ID is live again.
	d2, err := k.CreateDomainChecked()
	if err != nil {
		t.Fatal(err)
	}
	if d2.ID != d.ID {
		t.Fatalf("expected LIFO recycling, got ID %d (was %d)", d2.ID, d.ID)
	}
}

// TestForkSharesOverridesCopyOnWrite pins the fork cost model: the
// child inherits attachments and shares the parent's override table by
// pointer; the first divergent override (on either side) pays for the
// one private copy, observable on the kernel.cow_override_copies
// counter, and never leaks through to the other domain.
func TestForkSharesOverridesCopyOnWrite(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	parent := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
	k.Attach(parent, s, addr.RW)
	if err := k.SetPageRights(parent, s.PageVA(1), addr.Read); err != nil {
		t.Fatal(err)
	}

	ctrs := k.Counters()
	child, err := k.ForkDomain(parent)
	if err != nil {
		t.Fatalf("ForkDomain: %v", err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 0 {
		t.Fatalf("fork itself copied the override table (%d copies)", got)
	}
	// The child sees the parent's override through the shared table.
	if r, ok := child.PageOverride(k.Geometry().PageNumber(s.PageVA(1))); !ok || r != addr.Read {
		t.Fatalf("child override = %v,%v; want Read,true", r, ok)
	}

	// Child diverges: exactly one copy, parent unaffected.
	if err := k.SetPageRights(child, s.PageVA(2), addr.Read); err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 1 {
		t.Fatalf("divergent override made %d copies, want 1", got)
	}
	if _, ok := parent.PageOverride(k.Geometry().PageNumber(s.PageVA(2))); ok {
		t.Fatal("child's divergent override leaked into the parent")
	}
	// Parent mutates after the break: no further copying, no leak back.
	if err := k.SetPageRights(parent, s.PageVA(3), addr.Read); err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 1 {
		t.Fatalf("post-break parent mutation copied again (%d copies)", got)
	}
	if _, ok := child.PageOverride(k.Geometry().PageNumber(s.PageVA(3))); ok {
		t.Fatal("parent's override leaked into the child after the break")
	}
}

// TestForkInheritsAttachments: the child can touch everything the
// parent could, at the parent's rights, without any explicit Attach.
func TestForkInheritsAttachments(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			parent := k.CreateDomain()
			rw := k.CreateSegment(2, kernel.SegmentOptions{Name: "rw"})
			ro := k.CreateSegment(2, kernel.SegmentOptions{Name: "ro"})
			k.Attach(parent, rw, addr.RW)
			k.Attach(parent, ro, addr.Read)
			child, err := k.ForkDomain(parent)
			if err != nil {
				t.Fatalf("ForkDomain: %v", err)
			}
			if err := k.Touch(child, rw.Base(), addr.Store); err != nil {
				t.Fatalf("child store to inherited RW segment: %v", err)
			}
			if err := k.Touch(child, ro.Base(), addr.Load); err != nil {
				t.Fatalf("child load from inherited RO segment: %v", err)
			}
			if err := k.Touch(child, ro.Base(), addr.Store); err == nil {
				t.Fatal("child stored to a read-only inheritance")
			}
		})
	}
}

// TestDestroyLeavesNoResidue runs a domain across two CPUs (and into
// overrides) in every organization, destroys it, and sweeps the whole
// machine with the oracle: zero residual authority, ID and struct on
// the free lists.
func TestDestroyLeavesNoResidue(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			k, err := kernel.NewChecked(cfg)
			if err != nil {
				t.Fatalf("NewChecked: %v", err)
			}
			d := k.CreateDomain()
			s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
			k.Attach(d, s, addr.RW)
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(d, s.PageVA(uint64(cpu)), addr.Store); err != nil {
					t.Fatalf("touch on CPU %d: %v", cpu, err)
				}
			}
			if err := k.SetPageRights(d, s.PageVA(3), addr.Read); err != nil {
				t.Fatal(err)
			}
			k.SetCPU(0)
			id := d.ID
			if err := k.DestroyDomain(d); err != nil {
				t.Fatalf("DestroyDomain: %v", err)
			}
			if vs := oracle.DestroyViolations(k, id); len(vs) != 0 {
				t.Fatalf("residual authority after destroy:\n%v", vs)
			}
			if k.LiveDomains() != 0 || k.FreeDomainIDs() != 1 {
				t.Fatalf("live=%d free=%d after destroy, want 0/1",
					k.LiveDomains(), k.FreeDomainIDs())
			}
			// The segment is fully detached: it can be destroyed at once.
			if err := k.DestroySegment(s); err != nil {
				t.Fatalf("DestroySegment after domain destroy: %v", err)
			}
		})
	}
}

// TestDestroySegmentDropsSharerRecords is the pageDir-residue
// regression: after a segment dies, its pages' sharer sets must die
// with it, or a reused address range would direct shootdowns at CPUs
// from the previous tenancy.
func TestDestroySegmentDropsSharerRecords(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := k.CreateDomain()
	s := k.CreateSegment(2, kernel.SegmentOptions{Name: "seg"})
	k.Attach(d, s, addr.RW)
	k.SetCPU(1)
	if err := k.Touch(d, s.Base(), addr.Store); err != nil {
		t.Fatal(err)
	}
	vpn := k.Geometry().PageNumber(s.Base())
	if !k.PageResident(vpn, 1) {
		t.Fatal("touch did not register CPU 1 in the page's sharer set")
	}
	k.SetCPU(0)
	if err := k.Detach(d, s); err != nil {
		t.Fatal(err)
	}
	if err := k.DestroySegment(s); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 2; cpu++ {
		if k.PageResident(vpn, cpu) {
			t.Fatalf("destroyed segment's page still lists CPU %d as sharer", cpu)
		}
	}
}

// TestWarmAuthorityWithdrawnAllModels pins two withdrawals on every
// organization, each starting from a page the domain has hot in its
// protection structures: revoking the page's rights must make the very
// next load fault, and a recycled domain ID attached to nothing must be
// denied the page its dead predecessor held.
func TestWarmAuthorityWithdrawnAllModels(t *testing.T) {
	cases := []struct {
		name     string
		withdraw func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) *kernel.Domain
	}{
		{"SetPageRightsNone", func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) *kernel.Domain {
			if err := k.SetPageRights(d, s.Base(), addr.None); err != nil {
				t.Fatalf("SetPageRights: %v", err)
			}
			return d
		}},
		{"RecycledID", func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) *kernel.Domain {
			if err := k.DestroyDomain(d); err != nil {
				t.Fatal(err)
			}
			reborn := k.CreateDomain()
			if reborn.ID != d.ID {
				t.Fatalf("ID not recycled: %d vs %d", reborn.ID, d.ID)
			}
			return reborn
		}},
	}
	for _, model := range lifecycleModels {
		for _, tc := range cases {
			t.Run(model.String()+"/"+tc.name, func(t *testing.T) {
				k := kernel.New(kernel.DefaultConfig(model))
				d := k.CreateDomain()
				s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
				k.Attach(d, s, addr.RW)
				for i := 0; i < 2; i++ {
					if err := k.Touch(d, s.Base(), addr.Load); err != nil {
						t.Fatalf("warm load %d: %v", i, err)
					}
				}
				who := tc.withdraw(t, k, d, s)
				if err := k.Touch(who, s.Base(), addr.Load); err == nil {
					t.Fatalf("load allowed after %s: withdrawn authority is still in force", tc.name)
				}
			})
		}
	}
}

// TestDestroyedDomainDeniedEverywhere: after destroy, the dead ID gets
// nothing on any CPU in any organization, even where its entries were
// hot moments before.
func TestDestroyedDomainDeniedEverywhere(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			k, err := kernel.NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{Name: "seg"})
			k.Attach(d, s, addr.RW)
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(d, s.Base(), addr.Store); err != nil {
					t.Fatalf("warm store on CPU %d: %v", cpu, err)
				}
			}
			k.SetCPU(0)
			if err := k.DestroyDomain(d); err != nil {
				t.Fatal(err)
			}
			// A fresh incarnation of the same ID must start from nothing.
			reborn := k.CreateDomain()
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(reborn, s.Base(), addr.Load); err == nil {
					t.Fatalf("recycled ID %d read the dead incarnation's segment on CPU %d", reborn.ID, cpu)
				}
			}
		})
	}
}
