// Command benchreport runs the full experiment suite on the parallel
// harness and emits a machine-readable benchmark report
// (BENCH_report.json): per-experiment wall time, simulated cycles, key
// hardware counters, and host/go metadata.
//
// With -baseline it also compares the fresh report against a committed
// baseline and exits non-zero when the deterministic surface (simulated
// cycles and hardware counters, see benchfmt.ParitySurface) differs in
// any line — the CI regression gate. It prints the per-experiment
// simulated-cycle deltas and the first differing surface line. Simulated
// cycles are deterministic, so the committed baseline is portable across
// hosts; wall time is recorded but only gated when -wall-threshold is
// set (it is host noise otherwise).
//
// Usage:
//
//	benchreport                                   # write BENCH_report.json
//	benchreport -o BENCH_baseline.json            # refresh the baseline
//	benchreport -baseline BENCH_baseline.json     # exact-surface gate
//	benchreport -parallel 4 -v
//	benchreport -o '' -surface run.surface        # write the surface only
//	benchreport -wall-budget-ms 30000             # suite wall budget
//	benchreport -o '' -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/stats"
)

func main() {
	out := flag.String("o", "BENCH_report.json", "report output path (empty = don't write)")
	baseline := flag.String("baseline", "", "baseline report to compare against")
	wallThreshold := flag.Float64("wall-threshold", 0, "max allowed wall-time growth per experiment, percent (0 = don't gate wall time)")
	par := flag.Int("parallel", 0, "experiments to run concurrently (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print the per-experiment measurement table")
	surface := flag.String("surface", "", "write the deterministic surface (sim cycles + counters, no wall/host data) to this path")
	wallBudget := flag.Float64("wall-budget-ms", 0, "fail if the whole suite's wall time exceeds this many ms (0 = don't gate; set with ~3x headroom, wall time is host noise)")
	prof := profile.Register()
	flag.Parse()

	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	sum := core.RunAll(*par)
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	if len(sum.Failures) > 0 {
		for _, err := range sum.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "benchreport: %d of %d experiments failed\n",
			len(sum.Failures), len(sum.Results))
		os.Exit(1)
	}

	report := buildReport(sum, *par)
	if *verbose {
		printReport(report)
	}
	if *out != "" {
		if err := benchfmt.WriteFile(*out, report); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchreport: wrote %s (%d experiments, %.1fms, %d sim-cycles)\n",
			*out, len(report.Experiments), report.TotalWallMS, report.TotalSimCycles)
	}
	if *surface != "" {
		if err := os.WriteFile(*surface, []byte(benchfmt.ParitySurface(report)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: surface: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchreport: wrote surface %s\n", *surface)
	}
	if *wallBudget > 0 && report.TotalWallMS > *wallBudget {
		fmt.Fprintf(os.Stderr, "benchreport: suite wall time %.1fms exceeds budget %.0fms\n",
			report.TotalWallMS, *wallBudget)
		os.Exit(3)
	}

	if *baseline == "" {
		return
	}
	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
		os.Exit(1)
	}
	printDeltas("Simulated cycles against the baseline (any change fails)", benchfmt.Compare(base, report))
	failed := false
	if diff := benchfmt.SurfaceDiff(base, report); diff != "" {
		fmt.Fprintf(os.Stderr, "benchreport: surface differs from %s at %s\n", *baseline, diff)
		failed = true
	}
	if *wallThreshold > 0 {
		wallDeltas, wallRegressed := benchfmt.CompareWall(base, report, *wallThreshold)
		printDeltas(fmt.Sprintf("Wall time (threshold %.0f%%)", *wallThreshold), wallDeltas)
		if wallRegressed {
			fmt.Fprintf(os.Stderr, "benchreport: wall time regressed past %.0f%% against %s\n", *wallThreshold, *baseline)
			failed = true
		}
	}
	if failed {
		os.Exit(2)
	}
	fmt.Printf("benchreport: surface identical to %s\n", *baseline)
}

func buildReport(sum core.Summary, par int) *benchfmt.Report {
	r := &benchfmt.Report{
		SchemaVersion: benchfmt.SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Host: benchfmt.Host{
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			GoVersion: runtime.Version(),
		},
		Parallelism:    par,
		TotalWallMS:    ms(sum.Wall),
		TotalSimCycles: sum.SimCycles,
	}
	for _, res := range sum.Results {
		r.Experiments = append(r.Experiments, benchfmt.Experiment{
			ID:        res.Experiment.ID,
			Title:     res.Experiment.Title,
			WallMS:    ms(res.Wall),
			SimCycles: res.SimCycles,
			Counters:  benchfmt.FilterKey(res.Counters),
		})
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func printReport(r *benchfmt.Report) {
	t := stats.NewTable("Benchmark report", "experiment", "wall ms", "sim cycles", "key counters")
	for _, e := range r.Experiments {
		t.AddRow(e.ID, e.WallMS, e.SimCycles, len(e.Counters))
	}
	t.AddNote("%s/%s, %d cpu, %s", r.Host.GOOS, r.Host.GOARCH, r.Host.NumCPU, r.Host.GoVersion)
	t.Render(os.Stdout)
	fmt.Println()
}

func printDeltas(title string, deltas []benchfmt.Delta) {
	t := stats.NewTable(title, "experiment", "baseline", "current", "change", "verdict")
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "FAIL"
		}
		note := fmt.Sprintf("%+.2f%%", d.Pct)
		if d.Note != "" {
			note = d.Note
		}
		t.AddRow(d.ID, d.Base, d.Cur, note, verdict)
	}
	t.Render(os.Stdout)
	fmt.Println()
}
