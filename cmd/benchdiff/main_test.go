package main

import (
	"encoding/json"
	"strings"
	"testing"

	"sensoragg/internal/scenario"
)

func artifact(cpu string, entries ...Entry) *Artifact {
	return &Artifact{Meta: map[string]string{"cpu": cpu}, Entries: entries}
}

// entry mirrors bench2json's output: the gated fields plus the metrics
// map (whose "allocs/op" presence marks a -benchmem run).
func entry(name string, ns, allocs float64) Entry {
	return Entry{Name: name, NsPerOp: ns, AllocsPerOp: allocs,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func count(findings []Finding) (regressions int) {
	for _, f := range findings {
		if f.Regression {
			regressions++
		}
	}
	return
}

func TestCompareWithinToleranceOK(t *testing.T) {
	base := artifact("x", entry("BenchmarkA-1", 1000, 10))
	cur := artifact("x", entry("BenchmarkA-1", 1100, 11))
	findings := Compare(base, cur, Options{AllocSlack: 2})
	if count(findings) != 0 {
		t.Fatalf("want no regressions, got %+v", findings)
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	base := artifact("x", entry("BenchmarkA-1", 1000, 10))
	cur := artifact("x", entry("BenchmarkA-1", 1000, 13))
	findings := Compare(base, cur, Options{AllocSlack: 2})
	if count(findings) != 1 {
		t.Fatalf("want 1 regression, got %+v", findings)
	}
}

// TestCompareIgnoresWallClock: ns/op never gates, on one CPU or across
// two; allocation regressions gate either way.
func TestCompareIgnoresWallClock(t *testing.T) {
	base := artifact("cpu-a", entry("BenchmarkA-1", 1000, 10))
	for _, cpu := range []string{"cpu-a", "cpu-b"} {
		if findings := Compare(base, artifact(cpu, entry("BenchmarkA-1", 5000, 10)), Options{AllocSlack: 2}); count(findings) != 0 {
			t.Fatalf("%s: a 5x wall-clock slowdown failed the gate: %+v", cpu, findings)
		}
		if findings := Compare(base, artifact(cpu, entry("BenchmarkA-1", 1000, 20)), Options{AllocSlack: 2}); count(findings) != 1 {
			t.Fatalf("%s: want the alloc regression, got %+v", cpu, findings)
		}
	}
}

// TestMergeSamples: repeated runs gate on the per-benchmark minimum
// allocs/op, from samples of any machine.
func TestMergeSamples(t *testing.T) {
	a := artifact("x", entry("BenchmarkA-1", 1200, 10), entry("BenchmarkB-1", 900, 3))
	b := artifact("y", entry("BenchmarkA-1", 1000, 11), entry("BenchmarkB-1", 950, 2))
	merged := MergeSamples([]*Artifact{a, b})
	byName := map[string]Entry{}
	for _, e := range merged.Entries {
		byName[e.Name] = e
	}
	if e := byName["BenchmarkA-1"]; e.AllocsPerOp != 10 {
		t.Errorf("BenchmarkA merged to allocs=%g, want min 10", e.AllocsPerOp)
	}
	if e := byName["BenchmarkB-1"]; e.AllocsPerOp != 2 || e.Metrics["allocs/op"] != 2 {
		t.Errorf("BenchmarkB merged to allocs=%g (metric %g), want min 2", e.AllocsPerOp, e.Metrics["allocs/op"])
	}
	if b.Entries[1].Metrics["allocs/op"] != 2 || a.Entries[1].Metrics["allocs/op"] != 3 {
		t.Error("merging mutated a source sample's metrics")
	}

	// A sample run without -benchmem (no allocs/op metric) reports
	// AllocsPerOp 0; that zero must not win the min and disarm the alloc
	// gate.
	withAllocs := artifact("x", entry("BenchmarkA-1", 1000, 12))
	noBenchmem := artifact("x", Entry{Name: "BenchmarkA-1", NsPerOp: 900,
		Metrics: map[string]float64{"ns/op": 900}})
	for _, order := range [][]*Artifact{{withAllocs, noBenchmem}, {noBenchmem, withAllocs}} {
		merged = MergeSamples(order)
		if e := merged.Entries[0]; e.AllocsPerOp != 12 || e.Metrics["allocs/op"] != 12 {
			t.Errorf("benchmem-less sample disarmed the alloc gate: allocs=%g (metric %g), want 12",
				e.AllocsPerOp, e.Metrics["allocs/op"])
		}
	}

	// A single sample passes through untouched.
	only := artifact("x", entry("BenchmarkA-1", 1, 1))
	if merged := MergeSamples([]*Artifact{only}); merged != only {
		t.Errorf("single sample should pass through: %v", merged)
	}
}

// TestExactColumns: what -update commits carries no wall-clock column, and
// the artifact it came from is left as it was.
func TestExactColumns(t *testing.T) {
	cur := artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 800))
	data, err := json.Marshal(ExactColumns(cur))
	if err != nil {
		t.Fatal(err)
	}
	if js := string(data); strings.Contains(js, "ns_per_op") || strings.Contains(js, "ns/op") ||
		!strings.Contains(js, `"allocs_per_op":10`) || !strings.Contains(js, `"bits/node":800`) {
		t.Errorf("baseline entry %s: want allocs/op and bits/node, no ns/op", js)
	}
	if e := cur.Entries[0]; e.NsPerOp != 1000 || e.Metrics["ns/op"] != 1000 {
		t.Errorf("ExactColumns mutated its input: %+v", e)
	}
}

// TestMarkdown renders a stable table for the CI step summary.
func TestMarkdown(t *testing.T) {
	md := Markdown([]Finding{
		{Name: "BenchmarkA-1", Detail: "allocs/op 1.0 -> 1.0"},
		{Name: "BenchmarkB-1", Regression: true, Detail: "allocs/op 1 -> 9 (limit 3)"},
	}, 2)
	for _, want := range []string{
		"2 sample(s), min allocs/op",
		"| `BenchmarkA-1` | ✅ ok |",
		"| `BenchmarkB-1` | ❌ regression |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	base := artifact("x", entry("BenchmarkGone-1", 1000, 10))
	cur := artifact("x", entry("BenchmarkNew-1", 1000, 10))
	findings := Compare(base, cur, Options{AllocSlack: 2})
	if count(findings) != 0 {
		t.Fatalf("missing benchmark must not fail by default: %+v", findings)
	}
	findings = Compare(base, cur, Options{AllocSlack: 2, RequireAll: true})
	if count(findings) != 1 {
		t.Fatalf("-require-all must fail on missing benchmark: %+v", findings)
	}
}

// bitsEntry is entry plus the bits/node custom metric the cost benchmarks
// report.
func bitsEntry(name string, ns, allocs, bits float64) Entry {
	e := entry(name, ns, allocs)
	e.Metrics["bits/node"] = bits
	return e
}

func TestCompareDetectsBitsRegression(t *testing.T) {
	base := artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 800))
	cur := artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 850))
	findings := Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05})
	if count(findings) != 1 || !strings.Contains(findings[0].Detail, "bits/node") {
		t.Fatalf("want 1 bits/node regression, got %+v", findings)
	}
	// Within tolerance passes, and the detail surfaces the metric.
	cur = artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 820))
	findings = Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05})
	if count(findings) != 0 || !strings.Contains(findings[0].Detail, "bits/node 800 -> 820") {
		t.Fatalf("want clean bits/node comparison, got %+v", findings)
	}
	// Improvements are never regressions.
	cur = artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 400))
	if findings = Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05}); count(findings) != 0 {
		t.Fatalf("bits/node improvement flagged: %+v", findings)
	}
}

func TestCompareBitsGateSurvivesCPUChange(t *testing.T) {
	// bits/node is deterministic: the gate holds across different
	// hardware.
	base := artifact("cpu-a", bitsEntry("BenchmarkA-1", 1000, 10, 800))
	cur := artifact("cpu-b", bitsEntry("BenchmarkA-1", 5000, 10, 900))
	findings := Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05})
	if count(findings) != 1 || !strings.Contains(findings[0].Detail, "bits/node") {
		t.Fatalf("want the bits/node regression to survive the cpu change, got %+v", findings)
	}
}

func TestCompareMissingBitsMetric(t *testing.T) {
	base := artifact("x", bitsEntry("BenchmarkA-1", 1000, 10, 800))
	cur := artifact("x", entry("BenchmarkA-1", 1000, 10)) // metric vanished
	// Without -require-all: reported, not fatal.
	findings := Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05})
	if count(findings) != 0 || !strings.Contains(findings[0].Detail, "missing") {
		t.Fatalf("want non-fatal missing-metric note, got %+v", findings)
	}
	// With -require-all: a vanished communication metric fails the gate.
	findings = Compare(base, cur, Options{AllocSlack: 2, BitsTol: 0.05, RequireAll: true})
	if count(findings) != 1 || !strings.Contains(findings[0].Detail, "bits/node metric missing") {
		t.Fatalf("want missing-metric regression under -require-all, got %+v", findings)
	}
}

// --- scenario gate mode ---

func suiteWith(sums ...scenario.Summary) *scenario.SuiteResult {
	return &scenario.SuiteResult{Tool: "scenlab", Scenarios: sums}
}

// gatedSummary is a 3-rerun scenario summary that passes its declared
// gates; tests perturb one dimension at a time.
func gatedSummary(name string) scenario.Summary {
	limErr, limCV := 0.1, 0.5
	sum := scenario.Summary{
		Name:   name,
		Reruns: 3,
		Gates: scenario.Gates{
			MaxMeanRelErr:   &limErr,
			MaxRepairBitsCV: &limCV,
			Converge:        true,
			MinSamples:      6,
		},
		Samples:        9,
		MeanRelErr:     0.02,
		RepairBitsMean: 100,
		RepairBitsStd:  10,
		RepairBitsCV:   0.1,
		Converged:      true,
		RerunStats: []scenario.RerunStats{
			{Rerun: 0, Samples: 3, RecoveryExact: true, RepairBits: 100},
			{Rerun: 1, Samples: 3, RecoveryExact: true, RepairBits: 110},
			{Rerun: 2, Samples: 3, RecoveryExact: true, RepairBits: 90},
		},
	}
	return sum
}

func TestCompareScenariosAllPass(t *testing.T) {
	findings := CompareScenarios(suiteWith(gatedSummary("s1"), gatedSummary("s2")), true)
	if len(findings) != 8 {
		t.Fatalf("want 8 findings (4 gates x 2 scenarios), got %d: %+v", len(findings), findings)
	}
	if count(findings) != 0 {
		t.Fatalf("expected all pass: %+v", findings)
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.Name, "scenario/") {
			t.Fatalf("finding name %q not namespaced", f.Name)
		}
	}
}

func TestCompareScenariosVarianceBoundary(t *testing.T) {
	// CV exactly at the limit passes; any excess fails — mirroring the
	// inclusive tolerance convention of the bench gates.
	at := gatedSummary("at-limit")
	at.RepairBitsCV = *at.Gates.MaxRepairBitsCV
	over := gatedSummary("over-limit")
	over.RepairBitsCV = *over.Gates.MaxRepairBitsCV * 1.0001
	findings := CompareScenarios(suiteWith(at, over), false)
	var atPass, overPass bool
	for _, f := range findings {
		switch f.Name {
		case "scenario/at-limit/max-repair-bits-cv":
			atPass = !f.Regression
		case "scenario/over-limit/max-repair-bits-cv":
			overPass = !f.Regression
		}
	}
	if !atPass || overPass {
		t.Fatalf("boundary: at-limit pass=%v over-limit pass=%v", atPass, overPass)
	}
}

func TestCompareScenariosMissingRerun(t *testing.T) {
	// A summary whose rerun stats don't cover every declared rerun is a
	// harness failure, caught by the always-on sample gate.
	sum := gatedSummary("truncated")
	sum.RerunStats = sum.RerunStats[:2]
	findings := CompareScenarios(suiteWith(sum), false)
	failed := map[string]bool{}
	for _, f := range findings {
		if f.Regression {
			failed[f.Name] = true
		}
	}
	if !failed["scenario/truncated/min-samples"] {
		t.Fatalf("missing rerun must fail min-samples: %+v", findings)
	}
	// And the variance gate refuses to certify on 2 reruns.
	if !failed["scenario/truncated/max-repair-bits-cv"] {
		t.Fatalf("variance gate must fail below %d reruns: %+v", scenario.MinRerunsForVariance, findings)
	}
}

func TestCompareScenariosScalesMinSamples(t *testing.T) {
	// A suite run with -reruns 1 re-evaluates against a third of the
	// floor its scenarios declare for 3 reruns, and still catches a
	// shortfall below that share.
	sum := gatedSummary("one-rerun")
	sum.Gates.MinSamples, sum.DeclaredReruns, sum.Reruns = 9, 3, 1
	sum.RerunStats, sum.Samples = sum.RerunStats[:1], 3
	thin := sum
	thin.Name, thin.Samples = "thin", 2
	failed := map[string]bool{}
	for _, f := range CompareScenarios(suiteWith(sum, thin), false) {
		failed[f.Name] = f.Regression
	}
	if failed["scenario/one-rerun/min-samples"] || !failed["scenario/thin/min-samples"] {
		t.Fatalf("scaled floor: one-rerun failed %v, thin failed %v", failed["scenario/one-rerun/min-samples"], failed["scenario/thin/min-samples"])
	}
}

func TestCompareScenariosRequireAll(t *testing.T) {
	// An ungated scenario is invisible to the gate step; -require-all
	// turns that silence into a failure, like a vanished benchmark.
	bare := scenario.Summary{
		Name: "ungated", Reruns: 1, Samples: 3,
		RerunStats: []scenario.RerunStats{{Samples: 3, RecoveryExact: true}},
	}
	if got := count(CompareScenarios(suiteWith(bare), false)); got != 0 {
		t.Fatalf("without -require-all: %d regressions", got)
	}
	findings := CompareScenarios(suiteWith(bare), true)
	var flagged bool
	for _, f := range findings {
		if f.Name == "scenario/ungated" && f.Regression {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("-require-all must flag the ungated scenario: %+v", findings)
	}
}

func TestCompareScenariosIgnoresStoredVerdict(t *testing.T) {
	// The artifact's own Pass field is not trusted: the gate math runs on
	// the stored statistics.
	sum := gatedSummary("lying")
	sum.MeanRelErr = 99
	sr := suiteWith(sum)
	sr.Pass = true // hand-edited artifact claims success
	if count(CompareScenarios(sr, false)) == 0 {
		t.Fatal("breached rel-err gate must fail regardless of stored verdict")
	}
}
