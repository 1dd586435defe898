package repro

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/trace"
)

// accessModels lists the kernel's four organizations for the kernel
// Load/Store gate and benchmark.
var accessModels = []kernel.Model{
	kernel.ModelDomainPage, kernel.ModelPageGroup,
	kernel.ModelConventional, kernel.ModelFlush,
}

// accessBase is where the machine-level loops reference memory.
const accessBase = addr.VA(1) << 32

// convRefillPages exceeds the 128-entry TLB, so a cyclic sweep misses on
// every reference and each refill evicts, and de-indexes, the LRU entry.
const convRefillPages = 200

// newConvRefillStep returns one reference of a cyclic load sweep over
// convRefillPages pages on a ConventionalMachine, warmed by one sweep.
func newConvRefillStep() (*machine.ConventionalMachine, func() cpu.Outcome) {
	geo := addr.BaseGeometry()
	m := machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))
	m.SwitchDomain(1)
	i := 0
	step := func() cpu.Outcome {
		va := accessBase + addr.VA(i)*addr.VA(geo.PageSize())
		i = (i + 1) % convRefillPages
		return m.Access(va, addr.Load)
	}
	for j := 0; j < convRefillPages; j++ {
		step()
	}
	return m, step
}

// newFlushSwitchStep returns one reference on a FlushMachine that
// alternates between two domains every four references over eight
// pages, so every switch purges the TLB and the next references refill
// it. Warmed by one full cycle.
func newFlushSwitchStep() (*machine.FlushMachine, func() cpu.Outcome) {
	geo := addr.BaseGeometry()
	m := machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))
	i := 0
	step := func() cpu.Outcome {
		if i%4 == 0 {
			m.SwitchDomain(addr.DomainID(1 + (i/4)%2))
		}
		va := accessBase + addr.VA(i%8)*addr.VA(geo.PageSize())
		kind := addr.Load
		if i%3 == 0 {
			kind = addr.Store
		}
		i++
		return m.Access(va, kind)
	}
	for j := 0; j < 48; j++ {
		step()
	}
	return m, step
}

// newKernelAccessStep returns one kernel.Load or kernel.Store (3:1) by
// one of two read-write domains, switching every eight references, over
// four pages of one segment, warmed by one full cycle of the pattern.
func newKernelAccessStep(tb testing.TB, model kernel.Model) func() error {
	tb.Helper()
	k := kernel.New(kernel.DefaultConfig(model))
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "access"})
	doms := [2]*kernel.Domain{k.CreateDomain(), k.CreateDomain()}
	for _, d := range doms {
		k.Attach(d, s, addr.RW)
	}
	i := 0
	step := func() error {
		d := doms[(i/8)%2]
		va := s.PageVA(uint64(i%4)) + addr.VA(8*(i%16))
		i++
		if i%4 == 0 {
			return k.Store(d, va, uint64(i))
		}
		_, err := k.Load(d, va)
		return err
	}
	for j := 0; j < 64; j++ {
		if err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	return step
}

// TestAccessPathZeroAllocs guards the de-allocated reference path on
// every organization: a warm Access hit on either single-address-space
// machine, a conventional TLB refill that evicts, a flush machine's
// switch-purge-refill cycle, and kernel Load/Store under all four models
// must not allocate. The counter-handle registry resolves every name at
// construction, the PLB's single-size fast path builds its probe key on
// the stack, and the 128-entry structures index their ways in a flat
// slot table, so any allocation here is a regression the benchmarks
// would only show as noise.
func TestAccessPathZeroAllocs(t *testing.T) {
	t.Run("PLBMachine", func(t *testing.T) {
		os := trace.NewOpenOS(addr.BaseGeometry(), nil)
		m := machine.MustPLB(machine.DefaultPLBConfig(), os)
		m.SwitchDomain(1)
		va := addr.VA(1) << 32
		if out := m.Access(va, addr.Load); !out.OK() {
			t.Fatal("warm-up access faulted")
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if out := m.Access(va, addr.Load); !out.OK() {
				t.Fatal("fault on warm access")
			}
		})
		if allocs != 0 {
			t.Fatalf("PLBMachine.Access hit allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("PGMachine", func(t *testing.T) {
		os := trace.NewOpenOS(addr.BaseGeometry(), func(addr.VPN) addr.GroupID { return 1 })
		m := machine.NewPG(machine.DefaultPGConfig(), os)
		m.SwitchDomain(1)
		va := addr.VA(1) << 32
		if out := m.Access(va, addr.Load); !out.OK() {
			t.Fatal("warm-up access faulted")
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if out := m.Access(va, addr.Load); !out.OK() {
				t.Fatal("fault on warm access")
			}
		})
		if allocs != 0 {
			t.Fatalf("PGMachine.Access hit allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("ConventionalMachine", func(t *testing.T) {
		m, step := newConvRefillStep()
		refills := m.Counters().Get(machine.CtrTrapTLBRefill)
		allocs := testing.AllocsPerRun(1000, func() {
			if out := step(); !out.OK() {
				t.Fatal("fault on refill access")
			}
		})
		if allocs != 0 {
			t.Fatalf("ConventionalMachine.Access refill allocates %.1f allocs/op, want 0", allocs)
		}
		// AllocsPerRun makes one warm-up call before its 1000 runs.
		if n := m.Counters().Get(machine.CtrTrapTLBRefill) - refills; n != 1001 {
			t.Fatalf("%d TLB refills in 1001 references, want one per reference", n)
		}
	})
	t.Run("FlushMachine", func(t *testing.T) {
		m, step := newFlushSwitchStep()
		switches := m.Counters().Get(machine.CtrSwitches)
		allocs := testing.AllocsPerRun(1000, func() {
			if out := step(); !out.OK() {
				t.Fatal("fault on flush-machine access")
			}
		})
		if allocs != 0 {
			t.Fatalf("FlushMachine switch/access allocates %.1f allocs/op, want 0", allocs)
		}
		if n := m.Counters().Get(machine.CtrSwitches) - switches; n < 250 {
			t.Fatalf("%d domain switches in 1001 references, want one per four", n)
		}
	})
	for _, model := range accessModels {
		t.Run("Kernel/"+model.String(), func(t *testing.T) {
			step := newKernelAccessStep(t, model)
			allocs := testing.AllocsPerRun(1000, func() {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("kernel Load/Store on %s allocates %.1f allocs/op, want 0", model, allocs)
			}
		})
	}
}
