package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// TestAllExperimentsRun checks every experiment's outcome in the shared
// serial sweep (see serialSweep): no error, tables present, rows
// non-empty, and every table title carries the experiment ID.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range serialSweep().Results {
		e, tables := r.Experiment, r.Tables
		t.Run(e.ID, func(t *testing.T) {
			if r.Err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, r.Err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.NumRows() == 0 {
					t.Errorf("%s: empty table:\n%s", e.ID, tb)
				}
				if !strings.Contains(tb.String(), e.ID[:2]) {
					t.Errorf("%s: table title missing experiment id:\n%s", e.ID, tb)
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunBoth(t *testing.T) {
	runs, err := RunBoth(func(k *kernel.Kernel) error {
		d := k.CreateDomain()
		s := k.CreateSegment(4, kernel.SegmentOptions{})
		k.Attach(d, s, addr.RW)
		for p := uint64(0); p < 4; p++ {
			if err := k.Touch(d, s.PageVA(p), addr.Store); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for m, r := range runs {
		if r.Model != m {
			t.Errorf("model mismatch: %v vs %v", r.Model, m)
		}
		if r.MachineCycles == 0 || r.TotalCycles() <= r.MachineCycles {
			t.Errorf("%v: cycle accounting wrong: %+v", m, r)
		}
		// Each touch issues at least one access; demand-zero faults
		// retry, so the count is 2 per cold page here.
		if r.MachineCounters["access.total"] != 8 {
			t.Errorf("%v: accesses = %d, want 8 (4 faults + 4 retries)", m, r.MachineCounters["access.total"])
		}
	}
}

// Shape assertions: the qualitative orderings the paper predicts must
// hold in the regenerated tables.
func TestPaperShapeE2Duplication(t *testing.T) {
	tables, err := E2PLB(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The entry-size table must report 71-bit PLB entries (Figure 1).
	found := false
	for _, tb := range tables {
		s := tb.String()
		if strings.Contains(s, "Entry size") && strings.Contains(s, "71") {
			found = true
		}
	}
	if !found {
		t.Error("entry-size table missing 71-bit PLB entry")
	}
}

func TestPaperShapeE7Sequential(t *testing.T) {
	tables, err := E7AMAT(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E7 tables = %d", len(tables))
	}
	// On the cache-resident stream the PLB must win, and page-group
	// cost must grow monotonically with the sequential penalty.
	vals := cyclesPerAccess(t, tables[0].String())
	if len(vals) != 4 {
		t.Fatalf("expected 4 system rows:\n%s", tables[0])
	}
	if vals[0] >= vals[1] {
		t.Errorf("cache-resident: PLB (%.3f) not below page-group (%.3f)", vals[0], vals[1])
	}
	for i := 2; i < 4; i++ {
		if vals[i] <= vals[i-1] {
			t.Errorf("page-group cost not monotone in penalty: %v", vals)
		}
	}
}

func cyclesPerAccess(t *testing.T, table string) []float64 {
	t.Helper()
	var vals []float64
	for _, l := range strings.Split(table, "\n") {
		if strings.Contains(l, "PLB (parallel") || strings.Contains(l, "page-group (+") {
			f := strings.Fields(l)
			var v float64
			if _, err := fmt.Sscanf(f[len(f)-1], "%f", &v); err != nil {
				t.Fatalf("parse %q: %v", f[len(f)-1], err)
			}
			vals = append(vals, v)
		}
	}
	return vals
}
