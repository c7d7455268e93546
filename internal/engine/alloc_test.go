//go:build !race

package engine

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// TestJobBookkeepingIsNotPerNode fails while a job allocates N-sized
// bookkeeping — a copied population, a snapshot of its still-zero meter,
// sketch keys it never reads. On a warm session over a 16,384-node grid a
// solo count, sum, max or fused job must allocate under 1 B per node: the
// protocol's scratch is parked on the pooled run network and the truth is
// a walk of the view. A median job's truth materializes the population
// once (8 B per node) and sorts it in place, so it stays under 20 B per
// node. Bytes are the minimum over repeats, which discounts a collection
// that empties the sort's scratch pool mid-measurement.
//
// The file is excluded under -race: the race runtime instruments
// allocations.
func TestJobBookkeepingIsNotPerNode(t *testing.T) {
	spec := Spec{Topology: "grid", N: 16384, Workload: "uniform", Seed: 1}
	e := New(Options{Workers: 1})
	for _, tc := range []struct {
		kind    string
		perNode float64
	}{
		{KindCount, 1}, {KindSum, 1}, {KindMax, 1}, {KindFused, 1},
		{KindMedian, 20},
	} {
		jobs := []Job{{Spec: spec, Query: Query{Kind: tc.kind}}}
		if r := e.Submit(context.Background(), jobs)[0]; r.Failed() || !r.Exact {
			t.Fatalf("%s: warm-up run failed=%q exact=%v", tc.kind, r.Error, r.Exact)
		}
		best := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.Submit(context.Background(), jobs)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if per := float64(best) / float64(spec.N); per >= tc.perNode {
			t.Errorf("%s job allocates %.2f B per node (%d B), want < %g", tc.kind, per, best, tc.perNode)
		} else {
			t.Logf("%s job: %.2f B per node (%d B)", tc.kind, per, best)
		}
	}
}

// TestSoloSelectionAllocs gates the solo route on a warm 1,024-node Zipf
// grid, where a Submit of one unit runs it inline on the caller. A median's
// batch of one must allocate no more than 16 and four quantiles no more
// than 19; six medians at distinct run seeds, six units on the caller and
// three helpers, no more than 84 in all. A count rides along as the one
// solo route that is not a batch of one, its alone arm: no more than 7. A
// unit keeps its run, member, result and its plane's stepper list on the
// stack, and an alone arm's answer too. Each reading is the minimum of
// three: the session's fork pool grows whenever more units run at once
// than ever before, which a loaded host's scheduling can bring about in
// any one of them.
func TestSoloSelectionAllocs(t *testing.T) {
	spec := Spec{Topology: "grid", N: 1024, Workload: "zipf", Seed: 1}
	medians := make([]Job, 6)
	for i := range medians {
		medians[i] = Job{Spec: spec, Query: Query{Kind: KindMedian}, RunSeed: uint64(i + 1)}
	}
	for _, tc := range []struct {
		name    string
		workers int
		jobs    []Job
		max     float64
	}{
		{"median", 1, []Job{{Spec: spec, Query: Query{Kind: KindMedian}}}, 16},
		{"four quantiles", 1, []Job{{Spec: spec, Query: Query{Kind: KindQuantiles, Phis: []float64{0.1, 0.5, 0.9, 0.99}}}}, 19},
		{"count", 1, []Job{{Spec: spec, Query: Query{Kind: KindCount}}}, 7},
		{"six medians", 4, medians, 84},
	} {
		e := New(Options{Workers: tc.workers})
		for i, r := range e.Submit(context.Background(), tc.jobs) {
			if r.Failed() || !r.Exact {
				t.Fatalf("%s: warm-up job %d failed=%q exact=%v", tc.name, i, r.Error, r.Exact)
			}
		}
		got := math.Inf(1)
		for range 3 {
			got = min(got, testing.AllocsPerRun(50, func() { e.Submit(context.Background(), tc.jobs) }))
		}
		if got > tc.max {
			t.Errorf("warm solo %s Submit allocates %g, want <= %g", tc.name, got, tc.max)
		} else {
			t.Logf("warm solo %s Submit: %g allocs", tc.name, got)
		}
	}
}
