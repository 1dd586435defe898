package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// hist is a log-linear histogram of non-negative integers (host
// nanoseconds or simulated cycles): values below 64 are exact, larger
// ones fall into 64 sub-buckets per power of two, so a reported
// percentile is within 1/128 of the true sample. Recording never
// allocates.
type hist struct {
	n      uint64
	sum    uint64
	counts [59 * 64]uint64
}

func histIndex(v uint64) int {
	if v < 64 {
		return int(v)
	}
	shift := bits.Len64(v) - 7
	return (shift+1)*64 + int(v>>uint(shift)) - 64
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 64 {
		return float64(i)
	}
	shift := uint(i/64 - 1)
	lo := uint64(64+i%64) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(v uint64) {
	h.n++
	h.sum += v
	h.counts[histIndex(v)]++
}

// quantile returns the q-quantile (0 < q <= 1), or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// Timed kernel operations. Each gets one host-time histogram per
// organization in a traced run.
const (
	opLoad = iota
	opStore
	opFork
	opDestroy
	opTouch
	numOps
)

var opNames = [numOps]string{"Load", "Store", "ForkDomain", "DestroyDomain", "Touch"}

// span is one recorded interval. Spans nest workload -> organization
// phase -> operation; Parent is the index of the enclosing span (-1 for
// the root). Operation calls are too many to keep one by one, so each
// (organization, operation) pair is kept as one aggregate span whose
// Calls, BusyNs and percentiles summarize every call it covers.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Calls  uint64  `json:"calls,omitempty"`
	BusyNs uint64  `json:"busy_ns"`
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
}

// recorder collects spans around every call the benchmark makes into a
// layer. It is only consulted when tracing is on, so an untraced run
// takes no timestamps below the organization phase.
type recorder struct {
	epoch time.Time
	// ops holds host time per call, by organization and operation.
	ops [numOrgs][numOps]hist
	// destroyCycles holds simulated cycles per DestroyDomain call made
	// during the deterministic prefix (see phase.prefixRounds).
	destroyCycles [numOrgs]hist
	// phases are the per-organization busy intervals.
	phaseStart, phaseEnd [numOrgs]int64
	phaseBusy            [numOrgs]uint64
	// apps holds host time per application run.
	apps [numOrgs][numApps]hist
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// since returns nanoseconds from t to now.
func since(t time.Time) uint64 { return uint64(time.Since(t).Nanoseconds()) }

func (r *recorder) op(o, op int, t time.Time) { r.ops[o][op].add(since(t)) }

func (r *recorder) phase(o int, start time.Time, d time.Duration) {
	s := start.Sub(r.epoch).Nanoseconds()
	if r.phaseBusy[o] == 0 {
		r.phaseStart[o] = s
	}
	r.phaseEnd[o] = s + d.Nanoseconds()
	r.phaseBusy[o] += uint64(d.Nanoseconds())
}

func (r *recorder) app(o, a int, d time.Duration) { r.apps[o][a].add(uint64(d.Nanoseconds())) }

// spans flattens the recording into the nested span list.
func (r *recorder) spans(workload string) []span {
	end := time.Since(r.epoch).Nanoseconds()
	out := []span{{Name: workload, Parent: -1, End: end, BusyNs: uint64(end)}}
	for o := 0; o < numOrgs; o++ {
		if r.phaseBusy[o] == 0 {
			continue
		}
		parent := len(out)
		out = append(out, span{Name: orgNames[o], Parent: 0,
			Start: r.phaseStart[o], End: r.phaseEnd[o], BusyNs: r.phaseBusy[o]})
		add := func(name string, h *hist) {
			if h.n > 0 {
				out = append(out, span{Name: name, Parent: parent,
					Start: r.phaseStart[o], End: r.phaseEnd[o], Calls: h.n, BusyNs: h.sum,
					P50Ns: h.quantile(0.50), P99Ns: h.quantile(0.99)})
			}
		}
		for op := range opNames {
			add("kernel."+opNames[op], &r.ops[o][op])
		}
		for a := range apps {
			add("apps."+apps[a].name, &r.apps[o][a])
		}
	}
	return out
}

// dump writes the spans of a traced run to dir as JSON.
func (r *recorder) dump(dir, workload string, seed int64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.spans(workload), "", " ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return os.WriteFile(name, b, 0o644)
}
