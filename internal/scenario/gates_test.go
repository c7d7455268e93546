package scenario

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func f64(v float64) *float64 { return &v }

// passingSummary builds a summary that clears every gate it declares.
func passingSummary() *Summary {
	sum := &Summary{
		Name:   "g",
		Reruns: 3,
		Gates: Gates{
			MaxMeanRelErr:   f64(0.1),
			MaxRepairBitsCV: f64(0.5),
			Converge:        true,
			MinSamples:      6,
		},
		Samples:    9,
		MeanRelErr: 0.05,
		RerunStats: []RerunStats{
			{Rerun: 0, Samples: 3, RecoveryExact: true, RepairBits: 100},
			{Rerun: 1, Samples: 3, RecoveryExact: true, RepairBits: 110},
			{Rerun: 2, Samples: 3, RecoveryExact: true, RepairBits: 90},
		},
	}
	repair := []float64{100, 110, 90}
	sum.RepairBitsMean, sum.RepairBitsStd = meanStd(repair)
	sum.RepairBitsCV = sum.RepairBitsStd / sum.RepairBitsMean
	sum.Converged = true
	return sum
}

func finding(t *testing.T, fs []GateFinding, gate string) GateFinding {
	t.Helper()
	for _, f := range fs {
		if f.Gate == gate {
			return f
		}
	}
	t.Fatalf("gate %q not reported in %+v", gate, fs)
	return GateFinding{}
}

func TestEvaluateAllPass(t *testing.T) {
	fs := Evaluate(passingSummary())
	if len(fs) != 4 {
		t.Fatalf("want 4 findings, got %d: %+v", len(fs), fs)
	}
	if !AllPass(fs) {
		t.Fatalf("expected all pass: %+v", fs)
	}
}

func TestEvaluateBoundaryEquality(t *testing.T) {
	// Limits are inclusive: value == limit passes, just above fails.
	sum := passingSummary()
	sum.MeanRelErr = 0.1
	sum.RepairBitsCV = 0.5
	fs := Evaluate(sum)
	if !finding(t, fs, "max-mean-rel-err").Pass || !finding(t, fs, "max-repair-bits-cv").Pass {
		t.Fatalf("equality must pass: %+v", fs)
	}
	sum.MeanRelErr = math.Nextafter(0.1, 1)
	sum.RepairBitsCV = math.Nextafter(0.5, 1)
	fs = Evaluate(sum)
	if finding(t, fs, "max-mean-rel-err").Pass || finding(t, fs, "max-repair-bits-cv").Pass {
		t.Fatalf("just-above-limit must fail: %+v", fs)
	}
}

func TestEvaluateMissingRerun(t *testing.T) {
	sum := passingSummary()
	sum.RerunStats = sum.RerunStats[:2] // one declared rerun never reported
	fs := Evaluate(sum)
	f := finding(t, fs, "min-samples")
	if f.Pass {
		t.Fatalf("missing rerun must fail min-samples: %+v", f)
	}
}

// TestEvaluateMinSamplesScalesWithReruns: the declared min_samples floor
// covers the scenario's declared reruns, so a run the runner cut to fewer
// (or stretched to more) needs that share of it, rounded up. A missing
// rerun still fails, and a summary without its declared count keeps the
// absolute floor.
func TestEvaluateMinSamplesScalesWithReruns(t *testing.T) {
	sum := passingSummary()
	sum.Gates.MinSamples = 71
	sum.DeclaredReruns, sum.Reruns = 3, 1
	sum.RerunStats = sum.RerunStats[:1]
	for _, c := range []struct {
		samples, declared, reruns, stats int
		pass                             bool
		limit                            float64
	}{
		{24, 3, 1, 1, true, 24},    // ⌈71 / 3⌉
		{23, 3, 1, 1, false, 24},   // one short of the scaled floor
		{24, 3, 1, 0, false, 1},    // the one rerun never reported
		{24, 0, 1, 1, false, 71},   // an older summary: the absolute floor
		{141, 3, 6, 6, false, 142}, // six reruns need twice the floor
		{142, 3, 6, 6, true, 142},
	} {
		sum.Samples, sum.DeclaredReruns, sum.Reruns = c.samples, c.declared, c.reruns
		sum.RerunStats = make([]RerunStats, c.stats)
		f := finding(t, Evaluate(sum), "min-samples")
		if f.Pass != c.pass || f.Limit != c.limit {
			t.Errorf("%d samples, %d of %d declared reruns, %d reported: pass %v limit %g (%s), want pass %v limit %g",
				c.samples, c.reruns, c.declared, c.stats, f.Pass, f.Limit, f.Detail, c.pass, c.limit)
		}
	}
}

func TestEvaluateVarianceNeedsReruns(t *testing.T) {
	sum := passingSummary()
	sum.Reruns = 2
	sum.RerunStats = sum.RerunStats[:2]
	fs := Evaluate(sum)
	f := finding(t, fs, "max-repair-bits-cv")
	if f.Pass {
		t.Fatalf("variance gate with %d reruns must fail: %+v", len(sum.RerunStats), f)
	}
}

func TestEvaluateZeroRepair(t *testing.T) {
	// All-zero repair across reruns: CV is 0 and passes any limit.
	sum := passingSummary()
	for i := range sum.RerunStats {
		sum.RerunStats[i].RepairBits = 0
	}
	sum.RepairBitsMean, sum.RepairBitsStd, sum.RepairBitsCV = 0, 0, 0
	if f := finding(t, Evaluate(sum), "max-repair-bits-cv"); !f.Pass {
		t.Fatalf("zero repair must pass: %+v", f)
	}
	// Mean 0 with spread (can only arise from a stats bug) must fail.
	sum.RepairBitsCV = math.Inf(1)
	if f := finding(t, Evaluate(sum), "max-repair-bits-cv"); f.Pass {
		t.Fatalf("inf CV must fail: %+v", f)
	}
}

func TestEvaluateConvergence(t *testing.T) {
	sum := passingSummary()
	sum.Converged = false
	sum.RerunStats[1].Errors = 1
	f := finding(t, Evaluate(sum), "convergence")
	if f.Pass {
		t.Fatalf("non-converged must fail: %+v", f)
	}
}

func TestEvaluateMinSamples(t *testing.T) {
	sum := passingSummary()
	sum.Gates.MinSamples = 10 // have 9
	if f := finding(t, Evaluate(sum), "min-samples"); f.Pass {
		t.Fatalf("9 < 10 must fail: %+v", f)
	}
	sum.Gates.MinSamples = 9 // boundary: equality passes
	if f := finding(t, Evaluate(sum), "min-samples"); !f.Pass {
		t.Fatalf("9 >= 9 must pass: %+v", f)
	}
}

func TestEvaluateUndeclaredGatesSkipped(t *testing.T) {
	sum := passingSummary()
	sum.Gates = Gates{} // only the structural sample check remains
	fs := Evaluate(sum)
	if len(fs) != 1 || fs[0].Gate != "min-samples" {
		t.Fatalf("want only min-samples, got %+v", fs)
	}
}

func TestFinalizeSummaryCV(t *testing.T) {
	sum := &Summary{RerunStats: []RerunStats{
		{RepairBits: 100}, {RepairBits: 100}, {RepairBits: 100},
	}}
	finalizeSummary(sum)
	if sum.RepairBitsCV != 0 || sum.RepairBitsMean != 100 {
		t.Fatalf("uniform repair: %+v", sum)
	}
}

// TestUndefinedGateValueRoundTrips writes the findings of gates whose
// value is undefined — a variance over one rerun, a CV over a mean of 0
// with spread — through WriteArtifacts, and reads the same verdicts back
// with LoadSuiteResult: an undefined value is omitted, not encoded as NaN
// or infinity, which JSON cannot carry.
func TestUndefinedGateValueRoundTrips(t *testing.T) {
	oneRerun := passingSummary()
	oneRerun.Name, oneRerun.Reruns = "one-rerun", 1
	oneRerun.RerunStats = oneRerun.RerunStats[:1]
	oneRerun.Samples = 3
	oneRerun.Gates.MinSamples = 3
	oneRerun.RepairBitsMean, oneRerun.RepairBitsStd, oneRerun.RepairBitsCV = 100, 0, 0

	spread := passingSummary()
	spread.Name = "mean0-spread"
	spread.RepairBitsMean, spread.RepairBitsStd, spread.RepairBitsCV = 0, 5, 0

	var results []*RunResult
	var findings []GateFinding
	for _, sum := range []*Summary{oneRerun, spread} {
		results = append(results, &RunResult{Summary: *sum})
		fs := Evaluate(sum)
		if f := finding(t, fs, "max-repair-bits-cv"); f.Pass || f.Value != nil {
			t.Fatalf("%s: variance finding %+v, want a failure with no value", sum.Name, f)
		}
		findings = append(findings, fs...)
	}
	dir := t.TempDir()
	if err := WriteArtifacts(dir, results, findings, Provenance{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"samples.jsonl", "summary.json", "provenance.json", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
	sr, err := LoadSuiteResult(filepath.Join(dir, "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Pass || len(sr.Findings) != len(findings) {
		t.Fatalf("read back pass=%v with %d findings, wrote %d failing", sr.Pass, len(sr.Findings), len(findings))
	}
	for i, f := range sr.Findings {
		w := findings[i]
		if f.Scenario != w.Scenario || f.Gate != w.Gate || f.Pass != w.Pass || f.Detail != w.Detail || (f.Value == nil) != (w.Value == nil) {
			t.Errorf("finding %d read back as %+v, wrote %+v", i, f, w)
		}
	}
}
