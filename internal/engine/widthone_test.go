package engine

import (
	"context"
	"slices"
	"testing"

	"sensoragg/internal/faults"
)

// widthOnePaths submits job on the three paths a selection job can take:
// solo, as a twin batch under WithFusion (two equal jobs run once, as a
// fused batch of one slot), and as a batch of one under a phased plan
// whose strike comes after the last sweep (the retry driver with its
// budget unused).
func widthOnePaths(t *testing.T, job Job) (solo, twin, retried Result) {
	t.Helper()
	e := New(Options{Workers: 2})
	solo = e.Submit(context.Background(), []Job{job})[0]
	twin = e.Submit(context.Background(), []Job{job, job}, WithFusion())[0]
	if !twin.Fused && twin.Error == "" {
		t.Fatalf("%s: the twin batch did not fuse", job.Query)
	}
	phased := job
	phased.Spec.Faults = faults.Spec{MidAt: 1000, MidCrash: 0.05}
	phased.Spec.Retry = Retry{Budget: 1}
	retried = e.Submit(context.Background(), []Job{phased})[0]
	return solo, twin, retried
}

// TestWidthOnePathsAgree: at probe width 1 every path runs one schedule,
// Fig. 1 less its already-answered probes — the same values and the same
// sweeps solo, as a twin batch and on the retry driver. Bits may differ: a
// solo search frames each width-1 sweep as one COUNTP, the fused plane as
// a one-slot CountVec (with its x < M+1 top probe for COUNT).
func TestWidthOnePathsAgree(t *testing.T) {
	spec := Spec{Topology: "grid", N: 1024, Workload: "uniform", Seed: 3}
	for _, q := range []Query{
		{Kind: KindMedian},
		{Kind: KindOrderStat, K: 17},
		{Kind: KindQuantiles, Phis: []float64{0.01, 0.5, 0.99}},
	} {
		q.ProbeWidth = 1
		solo, twin, retried := widthOnePaths(t, Job{Spec: spec, Query: q})
		for _, r := range []Result{solo, twin, retried} {
			if r.Failed() {
				t.Fatalf("%s: %s", q, r.Error)
			}
			if !r.Exact {
				t.Errorf("%s: %g, truth %g", q, r.Value, r.Truth)
			}
		}
		if twin.Value != solo.Value || !slices.Equal(twin.Values, solo.Values) ||
			retried.Value != solo.Value || !slices.Equal(retried.Values, solo.Values) {
			t.Errorf("%s: solo %g %v, twin batch %g %v, retried %g %v", q,
				solo.Value, solo.Values, twin.Value, twin.Values, retried.Value, retried.Values)
		}
		if twin.SharedSweeps != solo.SharedSweeps || retried.SharedSweeps != solo.SharedSweeps {
			t.Errorf("%s: %d sweeps solo, %d as a twin batch, %d retried", q, solo.SharedSweeps, twin.SharedSweeps, retried.SharedSweeps)
		}
		t.Logf("%s: %d sweeps; bits/node %d solo (COUNTP), %d twin batch, %d retried (CountVec)",
			q, solo.SharedSweeps, solo.BitsPerNode, twin.BitsPerNode, retried.BitsPerNode)
	}
}

// TestNegativeProbeWidthRejected: a negative Query.ProbeWidth is one error
// on every path. It used to mean the classic search solo and the default
// width in a batch.
func TestNegativeProbeWidthRejected(t *testing.T) {
	spec := Spec{Topology: "grid", N: 256, Workload: "uniform", Seed: 3}
	const want = "engine: probe width -1 must be >= 0 (0 = the default 8)"
	for _, q := range []Query{
		{Kind: KindMedian, ProbeWidth: -1},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.75}, ProbeWidth: -1},
	} {
		solo, twin, retried := widthOnePaths(t, Job{Spec: spec, Query: q})
		for path, r := range map[string]Result{"solo": solo, "twin batch": twin, "retried": retried} {
			if r.Error != want {
				t.Errorf("%s %s: error %q, want %q", q, path, r.Error, want)
			}
		}
	}
}
