// Package profile gives the command-line tools host-side profiling:
// -cpuprofile writes a CPU profile of the run and -memprofile a heap
// profile taken at its end, both in pprof format (go tool pprof). Unset,
// the flags do nothing. Profiling observes the Go process only; it never
// changes what the simulator does, its simulated cycles or its counters.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered profiling flags.
type Flags struct {
	cpu, mem *string
}

// Register defines -cpuprofile and -memprofile on the default flag set.
// Call it before flag.Parse.
func Register() *Flags {
	return &Flags{
		cpu: flag.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: flag.String("memprofile", "", "write a heap profile at the end of the run to this file"),
	}
}

// Start begins CPU profiling when -cpuprofile is set. The returned stop
// function ends it and writes the heap profile when -memprofile is set;
// call it once, after the work to profile and before exiting (os.Exit
// skips deferred calls).
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if *f.mem == "" {
			return nil
		}
		memFile, err := os.Create(*f.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // up-to-date live-heap statistics
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			memFile.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return memFile.Close()
	}, nil
}
