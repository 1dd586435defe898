// Command chaos runs the deterministic fault campaign: every
// experiment under every fault scenario, with the shadow protection
// oracle verifying each surviving kernel after hardware recovery.
// The same seed reproduces a byte-identical report. Exits nonzero if
// the campaign breaks the robustness contract. -cpuprofile and
// -memprofile write host profiles of the campaign without changing the
// report.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/profile"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed (same seed, same report)")
	short := flag.Bool("short", false, "run the CI subset of experiments")
	list := flag.Bool("list", false, "list fault scenarios and exit")
	out := flag.String("o", "", "write the report to a file instead of stdout")
	prof := profile.Register()
	flag.Parse()

	if *list {
		for _, sc := range chaos.Default() {
			kind := "kernel"
			if sc.Direct != nil {
				kind = "direct"
			}
			fmt.Printf("%-20s [%s] %s\n", sc.Name, kind, sc.Description)
		}
		return
	}

	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
	res := chaos.Run(chaos.Config{Seed: *seed, Short: *short})
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
	report := res.Report()
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Print(report)
	}
	if !res.Passed() {
		os.Exit(1)
	}
}
