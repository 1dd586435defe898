package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	rep, err := run(options{workload: workload, seed: seed, seconds: 1, trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.result
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d: %v",
			workload, seed, trace, r.Correct, r.Attempted, r.Failed, rep.info["failures"])
	}
	return r
}

// hostMetric reports whether a metric measures host time or host
// memory, which vary from run to run; every other metric is simulated
// or counter-derived and must repeat exactly for a seed.
func hostMetric(name string) bool {
	for _, s := range []string{"ops_per_s", "setup_s", "heap_peak_mb", "host_ns", "busy_s",
		".calls", "host_ms", "oracle.", "go.", "trace."} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func TestWorkloads(t *testing.T) {
	sp := readSpec(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range []string{"hot", "churn", "apps"} {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				a, b := mustRun(t, w, 3, trace), mustRun(t, w, 3, trace)
				got := map[string]string{}
				for name, m := range a.Metrics {
					got[name] = m.Unit
					if !hostMetric(name) && m.Value != b.Metrics[name].Value {
						t.Errorf("trace %v: %s is %v, then %v with the same seed",
							trace, name, m.Value, b.Metrics[name].Value)
					}
				}
				if !reflect.DeepEqual(got, want[trace]) {
					t.Errorf("trace %v: metrics %v, BENCHMARK.json lists %v", trace, keys(got), keys(want[trace]))
				}
			}
			// A seed not used while the benchmark was written.
			mustRun(t, w, 977, false)
		})
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k, u := range m {
		out = append(out, k+" "+u)
	}
	sort.Strings(out)
	return out
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.99, 9900}} {
		if got := h.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if h.quantile(1) < 9900 {
		t.Errorf("quantile(1) = %v, want the maximum bucket", h.quantile(1))
	}
}
