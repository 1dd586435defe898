// Command tablegen regenerates the experiment tables of EXPERIMENTS.md:
// every quantified claim of the paper's evaluation, one experiment per
// table/figure/section.
//
// Experiments run on a worker pool ( -parallel N ); each builds its own
// kernels and machines with locally seeded RNGs, so the rendered output
// is byte-identical regardless of parallelism. A failing experiment no
// longer truncates the sweep: every experiment runs, every failure is
// reported at the end, and only then does tablegen exit non-zero.
//
// Usage:
//
//	tablegen               # run every experiment
//	tablegen -parallel 4   # run up to 4 experiments concurrently
//	tablegen -e E1         # run one experiment
//	tablegen -list         # list experiments
//	tablegen -e E18 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/profile"
)

func main() {
	exp := flag.String("e", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	par := flag.Int("parallel", 0, "experiments to run concurrently (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "report per-experiment wall time and simulated cycles to stderr")
	prof := profile.Register()
	flag.Parse()

	if *list {
		for _, e := range core.All() {
			fmt.Printf("%-4s %-70s [%s]\n", e.ID, e.Title, e.Source)
		}
		return
	}

	experiments := core.All()
	if *exp != "" {
		e, err := core.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		experiments = []core.Experiment{e}
	}

	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sum := core.RunExperiments(experiments, *par)
	if err := stopProfile(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range sum.Results {
		// Failed experiments still print their header so the table
		// sequence stays recognizable, but the sweep continues.
		os.Stdout.WriteString(r.Section())
		if *verbose {
			fmt.Fprintf(os.Stderr, "%-4s %8.1fms %14d sim-cycles\n",
				r.Experiment.ID, float64(r.Wall.Microseconds())/1000, r.SimCycles)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "suite: %d experiments in %.1fms, %d sim-cycles\n",
			len(sum.Results), float64(sum.Wall.Microseconds())/1000, sum.SimCycles)
	}
	if len(sum.Failures) > 0 {
		for _, err := range sum.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed\n", len(sum.Failures), len(sum.Results))
		os.Exit(1)
	}
}
