// Command perfbench is the repository's benchmark. It drives the
// simulated single address space system from outside — the public
// kernel.Kernel methods and the workload packages' Run functions — on
// all four protection organizations, times every call it makes, checks
// every output, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot|churn|apps --seed N --seconds S --trace 0|1
//
// Host time (how fast the Go simulator runs) and simulated cycles (what
// the modelled hardware costs) are kept apart: ops_per_s.* are host
// throughput, sim_cycles_per_op.* are deterministic and repeat exactly
// for a seed. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/kernel"
)

const numOrgs = 4

var (
	orgModels = [numOrgs]kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush}
	orgNames = func() (names [numOrgs]string) {
		for o, m := range orgModels {
			names[o] = m.String()
		}
		return names
	}()
)

// Estimators. The host this runs on is shared: other tenants slow a
// run down for seconds at a time, by as much as half. So host figures
// are taken from the quietest samples of a run — ops_per_s from the
// fastestRounds fastest rounds, setup_s from the fastestSetups fastest
// of setupReps set-ups spread over the timed phase — rather than from
// all of them.
const (
	fastestRounds = 5
	setupReps     = 30
	fastestSetups = 3
)

// workload is one benchmark workload, built (set up) by its
// constructor. Every organization runs the same script: round r of
// organization o executes the same inputs as round r of any other, so
// their outputs must agree.
type workload interface {
	// round runs the next chunk of the script on organization o and
	// returns the operations completed. rec is nil when untraced;
	// prefix marks the deterministic prefix rounds.
	round(o int, rec *recorder, prefix bool) int
	// endRound compares the organizations after each finished the
	// round.
	endRound()
	// totals returns organization o's cumulative simulated cycles and
	// counters.
	totals(o int) tally
	// roundOps is the number of operations a round completes on each
	// organization.
	roundOps() int
	// audit runs the oracle checks after a timed phase and returns how
	// many audit points it covered.
	audit() int
	checks() *checker
}

// workloads maps a workload name to its constructor and the number of
// deterministic prefix rounds its simulated metrics are taken over.
var workloads = map[string]struct {
	build        func(seed int64) (workload, error)
	prefixRounds int
	state        string
}{
	"hot":   {newHot, 4, "warm: every (domain, page) pair touched before timing"},
	"churn": {newChurn, 4, "warm: shared pages mapped and one round of sessions run before timing"},
	"apps":  {newApps, 2, "empty: every application run starts on a fresh kernel"},
}

// tally is an organization's cumulative simulated cycles and counters
// (kernel counters plus every CPU's machine counters, by name).
type tally struct {
	cycles uint64
	ctr    map[string]uint64
}

func (t tally) sub(u tally) tally {
	d := tally{cycles: t.cycles - u.cycles, ctr: map[string]uint64{}}
	for k, v := range t.ctr {
		d.ctr[k] = v - u.ctr[k]
	}
	return d
}

// kernelCounters merges a kernel's counters with every CPU's machine
// counters, read by name through Snapshot.
func kernelCounters(k *kernel.Kernel, into map[string]uint64) {
	for name, v := range k.Counters().Snapshot() {
		into[name] += v
	}
	for i := 0; i < k.NumCPUs(); i++ {
		for name, v := range k.MachineAt(i).Counters().Snapshot() {
			into[name] += v
		}
	}
}

// checker counts failed operations and keeps the first few reasons.
type checker struct {
	failed  uint64
	reasons []string
	// auditDur is time spent in oracle audits; untimed is time spent
	// inside a round on checks that must not count as operation time.
	auditDur, untimed time.Duration
}

func (c *checker) fail(n uint64, format string, args ...any) {
	c.failed += n
	if len(c.reasons) < 10 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	rates         [numOrgs][]float64 // ops per second, one per round
	ops           [numOrgs]uint64
	rounds        int
	allocs, bytes uint64
	gcs           uint32
	gcPause       time.Duration
	audits        int
	auditDur      time.Duration
}

// heap reads the runtime's allocation counters without stopping the
// world, and measures the live heap.
type heap struct {
	s    []metrics.Sample
	peak uint64
}

// heapSampler is the process's one sampler.
var heapSampler = &heap{s: []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}}

// allocated returns cumulative allocated objects and bytes.
func (h *heap) allocated() (objects, bytes uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// sampleLive collects garbage and raises heap_peak_mb to the live heap
// if larger. It runs at operation boundaries of the deterministic
// prefix, outside any timing: after every round, and on apps after
// every application run while its kernel is still reachable.
func (h *heap) sampleLive() {
	runtime.GC()
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[2].Value.Uint64())
}

// runPhase runs rounds until budget has passed and at least minRounds
// are done. When prefix is non-nil, the organizations' totals before
// and after the first minRounds rounds are stored in it. When between
// is non-nil it runs n-1 times, evenly spaced, between rounds; its time
// does not count against the budget.
func runPhase(w workload, budget time.Duration, minRounds int,
	rec *recorder, prefix *[2][numOrgs]tally, between func(), n int) phaseStats {
	var ps phaseStats
	h := heapSampler
	c := w.checks()
	auditBefore := c.auditDur
	if prefix != nil {
		for o := range orgNames {
			prefix[0][o] = w.totals(o)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for o := range ps.rates {
		ps.rates[o] = make([]float64, 0, 1024)
	}
	begin := time.Now()
	var paused time.Duration
	every := budget / time.Duration(max(n, 1))
	next := every
	for r := 0; r < minRounds || time.Since(begin)-paused < budget; r++ {
		inPrefix := prefix != nil && r < minRounds
		for i := range orgNames {
			o := (r + i) % numOrgs // rotate who goes first
			a0, b0 := h.allocated()
			untimed := c.untimed
			t := time.Now()
			n := w.round(o, rec, inPrefix)
			d := time.Since(t) - (c.untimed - untimed)
			a1, b1 := h.allocated()
			ps.allocs += a1 - a0
			ps.bytes += b1 - b0
			ps.rates[o] = append(ps.rates[o], float64(n)/d.Seconds())
			ps.ops[o] += uint64(n)
			if rec != nil {
				rec.phase(o, t, d)
			}
		}
		w.endRound()
		ps.rounds++
		if inPrefix {
			h.sampleLive()
		}
		if prefix != nil && r+1 == minRounds {
			for o := range orgNames {
				prefix[1][o] = w.totals(o)
			}
		}
		if between != nil && time.Since(begin)-paused >= next && next < budget {
			t := time.Now()
			between()
			paused += time.Since(t)
			next += every
		}
	}
	runtime.ReadMemStats(&m1)
	ps.gcs = m1.NumGC - m0.NumGC
	ps.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	ps.audits = w.audit()
	ps.auditDur = c.auditDur - auditBefore
	return ps
}

// best is the mean of the k largest values of xs (of all, if fewer).
func best(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	s = s[:min(k, len(s))]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return [3]float64{at(0.25), median(s), at(0.75)}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

// report is a run's result plus the context printed before it.
type report struct {
	result result
	info   map[string]any
}

func run(opt options) (*report, error) {
	spec, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want hot, churn or apps)", opt.workload)
	}
	if opt.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	h := heapSampler
	h.peak = 0
	// setups holds negated set-up seconds, so best picks the fastest.
	var setups []float64
	build := func() (workload, error) {
		runtime.GC()
		t := time.Now()
		w, err := spec.build(opt.seed)
		setups = append(setups, -time.Since(t).Seconds())
		return w, err
	}
	w, err := build()
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", opt.workload, err)
	}
	var setupErr error
	rebuild := func() {
		if _, err := build(); err != nil && setupErr == nil {
			setupErr = err
		}
		runtime.GC()
	}

	budget := time.Duration(opt.seconds) * time.Second
	var prefix [2][numOrgs]tally
	var rec *recorder
	var untraced, traced phaseStats
	if opt.trace {
		// The traced phase goes first so the deterministic prefix (and
		// the DestroyDomain cycle percentiles taken in it) sees the
		// same state as in an untraced run.
		rec = newRecorder()
		traced = runPhase(w, budget/2, spec.prefixRounds, rec, &prefix, nil, 0)
		untraced = runPhase(w, budget/2, 1, nil, nil, nil, 0)
	} else {
		untraced = runPhase(w, budget, spec.prefixRounds, nil, &prefix, rebuild, setupReps)
	}
	if setupErr != nil {
		return nil, fmt.Errorf("%s setup: %w", opt.workload, setupErr)
	}

	c := w.checks()
	var attempted uint64
	for o := range orgNames {
		attempted += untraced.ops[o] + traced.ops[o]
	}
	var pre [numOrgs]tally
	for o := range orgNames {
		pre[o] = prefix[1][o].sub(prefix[0][o])
	}
	preOps := uint64(spec.prefixRounds * w.roundOps())

	m := map[string]metric{}
	if opt.trace {
		layerMetrics(m, rec, pre, preOps, untraced, traced)
		if err := rec.dump(opt.traceOut, opt.workload, opt.seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		for o, name := range orgNames {
			m["ops_per_s."+name] = metric{best(untraced.rates[o], fastestRounds), "1/s"}
			m["sim_cycles_per_op."+name] = metric{float64(pre[o].cycles) / float64(preOps), "cycles/op"}
		}
		m["heap_peak_mb"] = metric{float64(h.peak) / (1 << 20), "MiB"}
		m["setup_s"] = metric{-best(setups, fastestSetups), "s"}
		m["success_ratio"] = metric{1 - float64(c.failed)/float64(attempted), "ratio"}
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			c.fail(1, "metric %s is not finite", name)
			m[name] = metric{0, v.Unit}
		}
	}

	samples := map[string]uint64{}
	if rec != nil {
		for o, org := range orgNames {
			for op, name := range opNames {
				samples["kernel."+name+"."+org] = rec.ops[o][op].n
			}
			samples["kernel.DestroyDomain.sim_cycles."+org] = rec.destroyCycles[o].n
		}
	}
	rounds := untraced.rounds
	spread := map[string][3]float64{}
	for o, org := range orgNames {
		spread[org] = quartiles(untraced.rates[o])
	}
	info := map[string]any{
		"workload":          opt.workload,
		"seed":              opt.seed,
		"seconds":           opt.seconds,
		"trace":             opt.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"structures":        spec.state,
		"untraced_rounds":   rounds,
		"traced_rounds":     traced.rounds,
		"rate_quartiles":    spread,
		"setups":            len(setups),
		"prefix_rounds":     spec.prefixRounds,
		"prefix_ops":        preOps,
		"percentile_counts": samples,
		"error_rate":        float64(c.failed) / float64(attempted),
		"failures":          c.reasons,
	}
	return &report{
		result: result{Correct: c.failed == 0, Attempted: attempted, Failed: c.failed, Metrics: m},
		info:   info,
	}, nil
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: hot, churn or apps")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&opt.seconds, "seconds", 10, "seconds of timed work")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.traceOut, "trace-out", "", "directory for a traced run's spans (none when empty)")
	flag.Parse()
	opt.trace = trace == 1
	// All load comes from one goroutine; one P keeps the garbage
	// collector's work on the measured thread instead of on whatever
	// the second CPU is doing.
	runtime.GOMAXPROCS(1)

	rep, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.result.Failed > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: failures:\n  "+strings.Join(rep.info["failures"].([]string), "\n  "))
	}
	info, _ := json.Marshal(map[string]any{"info": rep.info})
	fmt.Println(string(info))
	out, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
