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

// TestWidthOnePathsAgree: at every probe width, width 1 included, every
// path runs one schedule on one plane with one framing — the same values,
// sweeps and meters solo, as a twin batch and on the retry driver, on
// uniform and Zipf data.
func TestWidthOnePathsAgree(t *testing.T) {
	for _, wl := range []string{"uniform", "zipf"} {
		spec := Spec{Topology: "grid", N: 1024, Workload: wl, Seed: 3}
		for _, width := range []int{1, 2, 3, 4, 8, 16} {
			for _, q := range []Query{
				{Kind: KindMedian},
				{Kind: KindOrderStat, K: 17},
				{Kind: KindQuantiles, Phis: []float64{0.01, 0.5, 0.99}},
			} {
				q.ProbeWidth = width
				solo, twin, retried := widthOnePaths(t, Job{Spec: spec, Query: q})
				for _, r := range []Result{solo, twin, retried} {
					if r.Failed() {
						t.Fatalf("%s %s width %d: %s", wl, q, width, r.Error)
					}
					if !r.Exact {
						t.Errorf("%s %s width %d: %g, truth %g", wl, q, width, r.Value, r.Truth)
					}
				}
				for path, r := range map[string]Result{"twin batch": twin, "retried": retried} {
					if r.Value != solo.Value || !slices.Equal(r.Values, solo.Values) || r.SharedSweeps != solo.SharedSweeps ||
						r.BitsPerNode != solo.BitsPerNode || r.TotalBits != solo.TotalBits || r.Messages != solo.Messages {
						t.Errorf("%s %s width %d: solo %g %v in %d sweeps, %d bits/node, %d bits, %d messages; %s %g %v in %d, %d, %d, %d",
							wl, q, width, solo.Value, solo.Values, solo.SharedSweeps, solo.BitsPerNode, solo.TotalBits, solo.Messages,
							path, r.Value, r.Values, r.SharedSweeps, r.BitsPerNode, r.TotalBits, r.Messages)
					}
				}
				if width == 1 {
					t.Logf("%s %s width 1: %d sweeps, %d bits/node", wl, q, solo.SharedSweeps, solo.BitsPerNode)
				}
			}
		}
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
