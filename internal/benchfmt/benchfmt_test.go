package benchfmt

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		SchemaVersion:  SchemaVersion,
		GeneratedAt:    "2026-08-06T00:00:00Z",
		Host:           Host{GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GoVersion: "go1.22"},
		Parallelism:    4,
		TotalWallMS:    123.456,
		TotalSimCycles: 1100,
		Experiments: []Experiment{
			{ID: "E1", Title: "first", WallMS: 100.5, SimCycles: 1000,
				Counters: map[string]uint64{"plb.hit": 42, "cache.miss": 7}},
			{ID: "E2", Title: "second", WallMS: 22.956, SimCycles: 100},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_report.json")
	want := sampleReport()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("file round trip mismatch")
	}
}

func TestDecodeRejectsBadReports(t *testing.T) {
	for name, doc := range map[string]string{
		"wrong schema": `{"schema_version": 99, "experiments": []}`,
		"empty id":     `{"schema_version": 1, "experiments": [{"id": ""}]}`,
		"duplicate id": `{"schema_version": 1, "experiments": [{"id": "E1"}, {"id": "E1"}]}`,
		"not json":     `###`,
	} {
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareFlagsAnyChange(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Experiments[0].SimCycles = 1001 // +0.1%
	cur.Experiments[1].SimCycles = 95   // -5%

	for _, d := range Compare(base, cur) {
		switch d.ID {
		case "E1":
			if !d.Regressed || d.Pct < 0.09 || d.Pct > 0.11 {
				t.Errorf("E1 delta = %+v, want ~+0.1%% flagged", d)
			}
		case "E2":
			if !d.Regressed || d.Pct > 0 {
				t.Errorf("E2 delta = %+v, want a flagged decrease", d)
			}
		}
	}
	for _, d := range Compare(base, sampleReport()) {
		if d.Regressed || d.Pct != 0 {
			t.Errorf("identical run flagged: %+v", d)
		}
	}
}

func TestCompareStructuralDiffs(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	// E2 vanishes from the current run; E9 is new.
	cur.Experiments = []Experiment{
		cur.Experiments[0],
		{ID: "E9", Title: "new", SimCycles: 5},
	}
	byID := map[string]Delta{}
	for _, d := range Compare(base, cur) {
		byID[d.ID] = d
	}
	if d := byID["E2"]; !d.Regressed || d.Note == "" {
		t.Errorf("E2 (missing) = %+v, want regressed with note", d)
	}
	if d := byID["E9"]; d.Regressed || d.Note == "" {
		t.Errorf("E9 (new) = %+v, want noted but not regressed", d)
	}
}

// TestSurfaceDiff: the gate passes only on byte-identical surfaces and
// names the first differing line otherwise; wall time and host metadata
// never count.
func TestSurfaceDiff(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.TotalWallMS *= 3
	cur.Experiments[1].WallMS = 1
	cur.Host.NumCPU = 1
	if d := SurfaceDiff(base, cur); d != "" {
		t.Fatalf("wall/host-only change reported: %s", d)
	}
	cur.Experiments[0].Counters["plb.hit"] = 43
	want := `line 3: baseline "E1 counter plb.hit 42", current "E1 counter plb.hit 43"`
	if d := SurfaceDiff(base, cur); d != want {
		t.Fatalf("SurfaceDiff = %s, want %s", d, want)
	}
	cur = sampleReport()
	cur.Experiments = append(cur.Experiments, Experiment{ID: "E3", SimCycles: 1})
	if d := SurfaceDiff(base, cur); !strings.Contains(d, "E3 sim_cycles 1") {
		t.Fatalf("added experiment not reported: %q", d)
	}
}

func TestCompareWall(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Experiments[0].WallMS = base.Experiments[0].WallMS * 3
	if _, regressed := CompareWall(base, cur, 250); regressed {
		t.Fatal("3x wall flagged at 250% threshold")
	}
	if _, regressed := CompareWall(base, cur, 100); !regressed {
		t.Fatal("3x wall not flagged at 100% threshold")
	}
}

func TestFilterKey(t *testing.T) {
	in := map[string]uint64{
		"plb.hit":       1,
		"cache.miss":    2,
		"reliable.acks": 3,
		"kernel.misc":   4, // not a key prefix
	}
	out := FilterKey(in)
	if len(out) != 3 || out["plb.hit"] != 1 || out["kernel.misc"] != 0 {
		t.Fatalf("FilterKey = %v", out)
	}
	if FilterKey(map[string]uint64{"other": 1}) != nil {
		t.Fatal("all-filtered snapshot should be nil")
	}
}
