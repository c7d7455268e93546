package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {25, 3}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{9, 1, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 5}) {
		t.Errorf("median sorted its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// A stall in one slice must cost that slice only: the median slice rate of a
// run with one op a hundred times slower than the rest equals the clean rate.
func TestSliceMedianIgnoresOneStall(t *testing.T) {
	secs := make([]float64, 100)
	answers := make([]int, 100)
	for i := range secs {
		secs[i], answers[i] = 0.001, 4
	}
	secs[37] = 0.1
	rates := sliceRates(secs, answers, 10)
	if len(rates) != 10 {
		t.Fatalf("%d slices, want 10", len(rates))
	}
	if got := median(rates); got < 3999 || got > 4001 {
		t.Errorf("median slice rate = %g, want 4000", got)
	}
	// The remainder joins the last slice; fewer ops than slices is fine.
	if got := sliceRates(secs[:7], answers[:7], 10); len(got) != 7 {
		t.Errorf("7 ops cut into %d slices, want 7", len(got))
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 99.9}, {5400, 99}, {1000, 99}, {999, 95}, {250, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 1000_000},
		{ID: 2, Parent: 1, Name: "core.select", Start: 100_000, End: 900_000},
		{ID: 3, Parent: 2, Name: "agg.countvec_sweep", Start: 200_000, End: 500_000},
		{ID: 4, Parent: 2, Name: "agg.countvec_sweep", Start: 500_000, End: 800_000},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 200, "core": 200, "agg": 600}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	h := tr.begin("x.y")
	tr.end(h)
	tr.do("x.y", func() {})
	if tr.mark() != 0 || tr.since(0) != nil || tr.depth() != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestSeedWindows(t *testing.T) {
	got := seedWindows([]float64{1000, 10, 500}, []float64{900, 10, 700})
	want := [][2]uint64{{1000, 1200}, {0, 42}, {100, 500}}
	for i, w := range got {
		if w.Lo != want[i][0] || w.Hi != want[i][1] {
			t.Errorf("window %d = [%d, %d], want %v", i, w.Lo, w.Hi, want[i])
		}
	}
}

func TestDeriveSeparatesStreamsAndSeeds(t *testing.T) {
	seen := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		for _, stream := range []string{"deploy", "drift", "run"} {
			for i := uint64(0); i < 3; i++ {
				v := derive(seed, stream, i)
				if v == 0 {
					t.Fatalf("derive(%d, %s, %d) = 0", seed, stream, i)
				}
				if v != derive(seed, stream, i) {
					t.Fatalf("derive is not a function")
				}
				if prev, dup := seen[v]; dup {
					t.Fatalf("derive(%d, %s, %d) collides with %s", seed, stream, i, prev)
				}
				seen[v] = stream
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is not valid", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifestFromTables is BENCHMARK.json as the program's tables imply it.
func manifestFromTables() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}

// Every name BENCHMARK.json lists is one the program prints, and vice versa,
// with the same unit, direction and bound. UPDATE_MANIFEST=1 rewrites the file
// from the tables instead.
func TestManifestMatchesTheProgram(t *testing.T) {
	if os.Getenv("UPDATE_MANIFEST") != "" {
		raw, err := json.MarshalIndent(manifestFromTables(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if want := manifestFromTables(); !reflect.DeepEqual(m, want) {
		got, _ := json.MarshalIndent(m, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json and the program's tables disagree.\nfile:\n%s\nprogram:\n%s", got, exp)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
}

// The package's own go test runs the determinism self-check (also reachable
// as `-check`): every workload at 1 % of its op count, twice at seeds 1 and 2.
func TestSelfCheck(t *testing.T) {
	var out bytes.Buffer
	if err := selfCheck(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Log("\n" + out.String())
}
