package oracle

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/plb"
	"repro/internal/smp"
	"repro/internal/tlb"
)

// readOnlySetup builds a kernel of the given model with one domain
// attached read-only to one 4-page segment, and primes page 0 with a
// load so hardware state is resident.
func readOnlySetup(t *testing.T, model kernel.Model) (*kernel.Kernel, *kernel.Domain, *kernel.Segment) {
	t.Helper()
	k := kernel.New(kernel.DefaultConfig(model))
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "ro"})
	k.Attach(d, s, addr.Read)
	k.Switch(d)
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatalf("priming load: %v", err)
	}
	if err := Verify(k); err != nil {
		t.Fatalf("clean kernel fails verification: %v", err)
	}
	return k, d, s
}

// requireDetectAndRecover asserts that the kernel currently fails
// verification with a violation in structure where, and that
// RecoverHardware restores a verifiable state.
func requireDetectAndRecover(t *testing.T, k *kernel.Kernel, where string) {
	t.Helper()
	vs := Violations(k)
	if len(vs) == 0 {
		t.Fatal("oracle missed injected corruption")
	}
	found := false
	for _, v := range vs {
		if v.Where == where {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q violation among %d: first = %s", where, len(vs), vs[0])
	}
	if k.RecoverHardware() == 0 {
		t.Fatal("recovery dropped no entries")
	}
	if err := Verify(k); err != nil {
		t.Fatalf("oracle still dirty after recovery: %v", err)
	}
}

func TestOracleDetectsPLBCorruption(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelDomainPage)
	m := k.PLBMachine()
	// Every subsequent install latches RW regardless of granted rights —
	// a stale/flipped-rights entry, the classic security-hole direction.
	m.PLB().SetCorruptor(func(_ plb.Key, _ addr.Rights, _ bool) (addr.Rights, bool) {
		return addr.RW, true
	})
	k.Touch(d, s.PageVA(1), addr.Load)
	m.PLB().SetCorruptor(nil)
	requireDetectAndRecover(t, k, "plb")
	// After recovery the corrupted grant must be gone behaviorally too.
	if err := k.Touch(d, s.PageVA(1), addr.Store); err == nil {
		t.Fatal("store through read-only attachment allowed after recovery")
	}
}

func TestOracleDetectsTransTLBCorruption(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelDomainPage)
	m := k.PLBMachine()
	m.TLB().SetCorruptor(func(_ addr.VPN, e tlb.TransEntry, _ bool) (tlb.TransEntry, bool) {
		return tlb.TransEntry{PFN: e.PFN + 1}, true
	})
	k.Touch(d, s.PageVA(2), addr.Load)
	m.TLB().SetCorruptor(nil)
	requireDetectAndRecover(t, k, "trans-tlb")
}

func TestOracleDetectsPGTLBCorruption(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelPageGroup)
	m := k.PGMachine()
	m.TLB().SetCorruptor(func(_ addr.VPN, e tlb.PGEntry, _ bool) (tlb.PGEntry, bool) {
		e.Rights = addr.RW
		return e, true
	})
	k.Touch(d, s.PageVA(1), addr.Load)
	m.TLB().SetCorruptor(nil)
	requireDetectAndRecover(t, k, "pg-tlb")
}

func TestOracleDetectsCheckerCorruption(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelPageGroup)
	m := k.PGMachine()
	// Loads latch membership of a group the domain was never granted.
	m.Checker().SetCorruptor(func(g addr.GroupID, wd bool) (addr.GroupID, bool, bool) {
		return g + 1000, wd, true
	})
	m.Checker().PurgeAll() // force the next access to reload the group
	k.Touch(d, s.PageVA(1), addr.Load)
	m.Checker().SetCorruptor(nil)
	requireDetectAndRecover(t, k, "checker")
}

func TestOracleDetectsConvTLBCorruption(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelConventional)
	m := k.ConvMachine()
	m.TLB().SetCorruptor(func(_ tlb.ASIDKey, e tlb.ASIDEntry, _ bool) (tlb.ASIDEntry, bool) {
		e.Rights = addr.RW
		return e, true
	})
	k.Touch(d, s.PageVA(1), addr.Load)
	m.TLB().SetCorruptor(nil)
	requireDetectAndRecover(t, k, "asid-tlb")
}

// TestRightsMatchesResolveRights cross-checks the oracle's independent
// authority reconstruction against the kernel's ResolveRights over a
// random mix of attachments and overrides, on all three models.
func TestRightsMatchesResolveRights(t *testing.T) {
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional}
	for _, model := range models {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(100); seed < 104; seed++ {
				AuthorityFuzz(t, seed, func() *kernel.Kernel {
					return kernel.New(kernel.DefaultConfig(model))
				}, FuzzOptions{Ops: 150, CheckEvery: 25})
			}
		})
	}
}

// TestAuthorityFuzzMultiCPU runs the fuzz campaign on 4-CPU kernels of
// every organization: the stream migrates between CPUs, shootdowns keep
// each CPU's private structures in sync, and Violations audits every
// CPU's resident entries.
func TestAuthorityFuzzMultiCPU(t *testing.T) {
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush}
	for _, model := range models {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(200); seed < 204; seed++ {
				AuthorityFuzz(t, seed, func() *kernel.Kernel {
					cfg := kernel.DefaultConfig(model)
					cfg.CPUs = 4
					return kernel.New(cfg)
				}, FuzzOptions{Ops: 150, CheckEvery: 25})
			}
		})
	}
}

// TestOracleDetectsRemoteCPUCorruption corrupts a structure on a CPU
// that is NOT current and confirms the oracle's per-CPU sweep still
// finds it (and names the CPU), and that RecoverHardware — which walks
// every CPU — clears it.
func TestOracleDetectsRemoteCPUCorruption(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k := kernel.New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "ro"})
	k.Attach(d, s, addr.Read)

	// Prime CPU 1 with a corrupt RW entry, then return to CPU 0.
	k.SetCPU(1)
	m := k.PLBMachineAt(1)
	m.PLB().SetCorruptor(func(_ plb.Key, _ addr.Rights, _ bool) (addr.Rights, bool) {
		return addr.RW, true
	})
	if err := k.Touch(d, s.PageVA(1), addr.Load); err != nil {
		t.Fatalf("priming load: %v", err)
	}
	m.PLB().SetCorruptor(nil)
	k.SetCPU(0)

	vs := Violations(k)
	found := false
	for _, v := range vs {
		if v.Where == "plb" && v.CPU == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("oracle missed remote CPU 1 corruption (got %d violations)", len(vs))
	}
	if k.RecoverHardware() == 0 {
		t.Fatal("recovery dropped no entries")
	}
	if err := Verify(k); err != nil {
		t.Fatalf("oracle still dirty after recovery: %v", err)
	}
}

// TestOracleDetectsDroppedShootdown arms an IPI fault that drops every
// delivery, revokes rights while the victim domain's entries are
// resident on another CPU, and confirms the stale remote grant surfaces
// as a violation on that CPU.
func TestOracleDetectsDroppedShootdown(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k := kernel.New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
	k.Attach(d, s, addr.RW)

	// Make d's rights resident on CPU 1, then operate from CPU 0 with
	// shootdown delivery broken.
	k.SetCPU(1)
	if err := k.Touch(d, s.PageVA(1), addr.Store); err != nil {
		t.Fatalf("priming store: %v", err)
	}
	k.SetCPU(0)
	k.SetIPIFault(func(int, smp.Request) smp.Fault { return smp.FaultDrop })
	if err := k.SetPageRights(d, s.PageVA(1), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	k.SetIPIFault(nil)
	if k.Counters().Get("smp.ipi_dropped") == 0 {
		t.Fatal("fault hook never fired")
	}

	vs := Violations(k)
	found := false
	for _, v := range vs {
		if v.Where == "plb" && v.CPU == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("oracle missed stale RW grant on CPU 1 after dropped shootdown (got %d violations)", len(vs))
	}
	if k.RecoverHardware() == 0 {
		t.Fatal("recovery dropped no entries")
	}
	if err := Verify(k); err != nil {
		t.Fatalf("oracle still dirty after recovery: %v", err)
	}
}

// TestSweepVerdictsCleanKernel asserts the differential access sweep
// reports nothing on an uncorrupted kernel with mixed rights.
func TestSweepVerdictsCleanKernel(t *testing.T) {
	for _, model := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional} {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			d1, d2 := k.CreateDomain(), k.CreateDomain()
			s := k.CreateSegment(4, kernel.SegmentOptions{})
			k.Attach(d1, s, addr.RW)
			k.Attach(d2, s, addr.Read)
			k.Switch(d1)
			k.Touch(d1, s.Base(), addr.Store)
			if vs := SweepVerdicts(k); len(vs) > 0 {
				t.Fatalf("clean kernel has verdict violations: %s", vs[0])
			}
		})
	}
}

// TestSweepVerdictsCatchesStaleGrant plants a corrupt resident PLB
// entry and confirms the differential sweep sees the machine allow an
// access authority forbids.
func TestSweepVerdictsCatchesStaleGrant(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelDomainPage)
	m := k.PLBMachine()
	m.PLB().SetCorruptor(func(_ plb.Key, _ addr.Rights, _ bool) (addr.Rights, bool) {
		return addr.RW, true
	})
	k.Touch(d, s.PageVA(1), addr.Load)
	m.PLB().SetCorruptor(nil)
	vs := SweepVerdicts(k)
	found := false
	for _, v := range vs {
		if v.Where == "verdict" {
			found = true
		}
	}
	if !found {
		t.Fatal("sweep missed machine allowing a store through a corrupt RW entry")
	}
}

// FuzzVerdictAgreement is the native fuzz target for the oracle-vs-
// machine verdict agreement property: for any operation sequence the
// seed generates, all three machine models must agree with the shadow
// model on every access verdict.
func FuzzVerdictAgreement(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, model := range models {
			AuthorityFuzz(t, seed, func() *kernel.Kernel {
				return kernel.New(kernel.DefaultConfig(model))
			}, FuzzOptions{Ops: 120, CheckEvery: 40})
		}
	})
}
