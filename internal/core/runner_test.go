package core

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload/dsm"
)

// serialSweep runs the whole suite serially once per test binary. The
// determinism check and the per-experiment checks of
// TestAllExperimentsRun share it, so the package's tests run the suite
// twice in all: this serial sweep and one parallel sweep.
var serialSweep = sync.OnceValue(func() Summary { return RunAll(1) })

// TestRunAllDeterministic is the harness's core guarantee: serial and
// wide-parallel sweeps must render byte-identical tables and identical
// measurements, because every experiment isolates its own state. The
// serial sweep's output — what `tablegen` prints — must also match
// testdata/tables.golden byte for byte, so a change that moves any
// table cell, ratio or note fails here. Regenerate it deliberately with
// UPDATE_TABLES_GOLDEN=1 go test ./internal/core -run TestRunAllDeterministic.
func TestRunAllDeterministic(t *testing.T) {
	s1 := serialSweep()
	checkTablesGolden(t, s1)
	s8 := RunAll(8)
	if len(s1.Results) != len(s8.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(s1.Results), len(s8.Results))
	}
	if len(s1.Failures) != 0 || len(s8.Failures) != 0 {
		t.Fatalf("failures: serial %v, parallel %v", s1.Failures, s8.Failures)
	}
	for i := range s1.Results {
		a, b := s1.Results[i], s8.Results[i]
		if a.Experiment.ID != b.Experiment.ID {
			t.Fatalf("result %d order differs: %s vs %s", i, a.Experiment.ID, b.Experiment.ID)
		}
		if sa, sb := a.Section(), b.Section(); sa != sb {
			t.Errorf("%s: table output differs between -parallel 1 and 8:\n--- serial\n%s\n--- parallel\n%s",
				a.Experiment.ID, sa, sb)
		}
		if a.SimCycles != b.SimCycles {
			t.Errorf("%s: sim cycles differ: %d vs %d", a.Experiment.ID, a.SimCycles, b.SimCycles)
		}
		if a.SimCycles == 0 {
			t.Errorf("%s: probe observed no simulated cycles", a.Experiment.ID)
		}
		if len(a.Counters) == 0 {
			t.Errorf("%s: probe observed no counters", a.Experiment.ID)
		}
		if !mapsEqual(a.Counters, b.Counters) {
			t.Errorf("%s: counters differ between parallelism levels", a.Experiment.ID)
		}
	}
	if s1.SimCycles != s8.SimCycles {
		t.Errorf("suite sim cycles differ: %d vs %d", s1.SimCycles, s8.SimCycles)
	}
	if !mapsEqual(s1.Totals, s8.Totals) {
		t.Errorf("suite counter totals differ between parallelism levels")
	}
}

// checkTablesGolden compares the sweep's rendered sections against
// testdata/tables.golden, naming the first differing line.
func checkTablesGolden(t *testing.T, s Summary) {
	t.Helper()
	var b strings.Builder
	for _, r := range s.Results {
		b.WriteString(r.Section())
	}
	got := b.String()
	const golden = "testdata/tables.golden"
	if os.Getenv("UPDATE_TABLES_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("regenerated " + golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("table output diverges from %s at line %d:\n got: %q\nwant: %q", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("table output length differs from %s: got %d lines, want %d", golden, len(gotLines), len(wantLines))
}

// TestExperimentsConcurrentSameID runs one experiment from several
// goroutines at once — under -race this fails loudly if any experiment
// state is shared rather than per-run.
func TestExperimentsConcurrentSameID(t *testing.T) {
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = runOne(e).Section()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if outs[w] != outs[0] {
			t.Errorf("concurrent run %d rendered different output", w)
		}
	}
}

// TestE14ConcurrentDeterministic pins the shootdown experiment — the
// one that builds multiprocessor kernels — to the same guarantee: runs
// racing on separate goroutines must render byte-identical tables, and
// under -race any sharing between the per-CPU machine instances of
// concurrent kernels fails loudly.
func TestE14ConcurrentDeterministic(t *testing.T) {
	e, err := ByID("E14")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = runOne(e).Section()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if outs[w] != outs[0] {
			t.Errorf("concurrent E14 run %d rendered different output:\n--- run 0\n%s\n--- run %d\n%s",
				w, outs[0], w, outs[w])
		}
	}
}

// TestRunExperimentsCollectsAllErrors: a failing experiment must not
// stop the sweep; every failure is reported, in experiment order.
func TestRunExperimentsCollectsAllErrors(t *testing.T) {
	ok := func(id string) Experiment {
		return Experiment{ID: id, Title: "ok", Source: "test",
			Run: func(p *Probe) ([]*stats.Table, error) {
				p.ObserveCycles(1)
				tb := stats.NewTable(id+" table", "col")
				tb.AddRow(1)
				return []*stats.Table{tb}, nil
			}}
	}
	boom := func(id string) Experiment {
		return Experiment{ID: id, Title: "boom", Source: "test",
			Run: func(*Probe) ([]*stats.Table, error) {
				return nil, errors.New(id + " exploded")
			}}
	}
	exps := []Experiment{ok("X1"), boom("X2"), ok("X3"), boom("X4"), ok("X5")}
	sum := RunExperiments(exps, 3)

	if len(sum.Results) != len(exps) {
		t.Fatalf("results = %d, want %d", len(sum.Results), len(exps))
	}
	if len(sum.Failures) != 2 {
		t.Fatalf("failures = %v, want 2", sum.Failures)
	}
	for i, want := range []string{"X2", "X4"} {
		if !strings.Contains(sum.Failures[i].Error(), want) {
			t.Errorf("failure %d = %v, want experiment %s", i, sum.Failures[i], want)
		}
	}
	for i, r := range sum.Results {
		if r.Experiment.ID != exps[i].ID {
			t.Errorf("result %d is %s, want %s (order must be preserved)", i, r.Experiment.ID, exps[i].ID)
		}
		failed := r.Experiment.ID == "X2" || r.Experiment.ID == "X4"
		if (r.Err != nil) != failed {
			t.Errorf("%s: err = %v", r.Experiment.ID, r.Err)
		}
		if !failed && len(r.Tables) == 0 {
			t.Errorf("%s: successful run lost its tables", r.Experiment.ID)
		}
	}
	if sum.SimCycles != 3 {
		t.Errorf("suite sim cycles = %d, want 3 (one per successful run)", sum.SimCycles)
	}
}

// TestProbeNilSafe: experiments must run uninstrumented.
func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	p.ObserveCycles(5)
	p.ObserveCounters(map[string]uint64{"x": 1})
	p.ObserveKernel(nil)
	p.ObserveTrace(trace.Result{Cycles: 7, Counters: map[string]uint64{"y": 2}})
	observeDSM(p, dsm.Report{MachineCycles: 3, NetMsgs: 4})
	if p.SimCycles() != 0 || p.CounterSnapshot() != nil {
		t.Fatal("nil probe recorded something")
	}
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
