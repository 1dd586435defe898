package kernel_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// Allocation gates for the multi-tenant churn target: once the Domain
// pool and counters are warm, a create/destroy cycle must not allocate —
// empty domains are lazily initialized (attached/overrides/groups all
// materialize on first use) and destroyed structs are pooled with their
// attachment and group sets truncated, not dropped. A regression
// here turns million-session workloads into GC benchmarks. Every gate
// runs on all four organizations.

var allocModels = []kernel.Model{
	kernel.ModelDomainPage, kernel.ModelPageGroup,
	kernel.ModelConventional, kernel.ModelFlush,
}

func measureChurn(t *testing.T, warm, cycle func()) float64 {
	t.Helper()
	for i := 0; i < 16; i++ {
		warm()
	}
	return testing.AllocsPerRun(200, cycle)
}

func TestEmptyDomainChurnAllocs(t *testing.T) {
	for _, model := range allocModels {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			cycle := func() {
				d, err := k.CreateDomainChecked()
				if err != nil {
					t.Fatal(err)
				}
				if err := k.DestroyDomain(d); err != nil {
					t.Fatal(err)
				}
			}
			if avg := measureChurn(t, cycle, cycle); avg > 0 {
				t.Errorf("empty-domain create/destroy allocates %.1f objects per cycle, want 0", avg)
			}
		})
	}
}

// TestSessionChurnAllocs is the gate for the realistic shape: recycled
// domains attach to long-lived segments, touch nothing, and die. The
// attachment bookkeeping reuses the pooled struct's truncated sets.
func TestSessionChurnAllocs(t *testing.T) {
	for _, model := range allocModels {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
			cycle := func() {
				d, err := k.CreateDomainChecked()
				if err != nil {
					t.Fatal(err)
				}
				k.Attach(d, s, addr.RW)
				if err := k.DestroyDomain(d); err != nil {
					t.Fatal(err)
				}
			}
			if avg := measureChurn(t, cycle, cycle); avg > 0 {
				t.Errorf("attach churn allocates %.1f objects per cycle, want 0", avg)
			}
		})
	}
}

// TestForkChurnAllocs gates fork-style session spawning: children fork
// from a template, touch a page on their own CPU of four, and are
// destroyed from CPU 0, so every destroy sends shootdowns across CPUs.
// The template holds a read-only override on one page, which parks that
// page in a derived group under page-group: every fork joins the group
// and every destroy leaves it, so the group-set copy, the derived
// membership update and the revocation walk are all on the measured
// path.
func TestForkChurnAllocs(t *testing.T) {
	const cpus = 4
	for _, model := range allocModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = cpus
			k := kernel.New(cfg)
			tmpl := k.CreateDomain()
			segs := []*kernel.Segment{
				k.CreateSegment(4, kernel.SegmentOptions{Name: "shared0"}),
				k.CreateSegment(4, kernel.SegmentOptions{Name: "shared1"}),
			}
			for _, s := range segs {
				k.Attach(tmpl, s, addr.RW)
				for p := uint64(0); p < s.NumPages(); p++ {
					if err := k.Touch(tmpl, s.PageVA(p), addr.Store); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := k.SetPageRights(tmpl, segs[0].PageVA(0), addr.Read); err != nil {
				t.Fatal(err)
			}
			n := 0
			cycle := func() {
				n++
				d, err := k.ForkDomain(tmpl)
				if err != nil {
					t.Fatal(err)
				}
				k.SetCPU(n % cpus)
				if err := k.Touch(d, segs[n%2].PageVA(1), addr.Store); err != nil {
					t.Fatal(err)
				}
				if err := k.Touch(d, segs[0].PageVA(0), addr.Load); err != nil {
					t.Fatal(err)
				}
				k.SetCPU(0)
				if err := k.DestroyDomain(d); err != nil {
					t.Fatal(err)
				}
			}
			if avg := measureChurn(t, cycle, cycle); avg > 0 {
				t.Errorf("fork/touch/destroy churn allocates %.1f objects per cycle, want 0", avg)
			}
		})
	}
}
