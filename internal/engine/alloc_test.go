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

// TestSoloSelectionAllocs gates the solo selection route: a solo median or
// quantiles job is a unit of one whose batch of one runs through runBatch,
// and a warm Submit of one on a 1,024-node Zipf grid must allocate no more
// than 24 for the median and 27 for four quantiles. The unit keeps its run,
// member, result and its plane's stepper list on the stack.
func TestSoloSelectionAllocs(t *testing.T) {
	spec := Spec{Topology: "grid", N: 1024, Workload: "zipf", Seed: 1}
	e := New(Options{Workers: 1})
	for _, tc := range []struct {
		q   Query
		max float64
	}{
		{Query{Kind: KindMedian}, 24},
		{Query{Kind: KindQuantiles, Phis: []float64{0.1, 0.5, 0.9, 0.99}}, 27},
	} {
		jobs := []Job{{Spec: spec, Query: tc.q}}
		if r := e.Submit(context.Background(), jobs)[0]; r.Failed() || !r.Exact {
			t.Fatalf("%s: warm-up run failed=%q exact=%v", tc.q, r.Error, r.Exact)
		}
		if got := testing.AllocsPerRun(50, func() { e.Submit(context.Background(), jobs) }); got > tc.max {
			t.Errorf("warm solo %s Submit allocates %g, want <= %g", tc.q, got, tc.max)
		} else {
			t.Logf("warm solo %s Submit: %g allocs", tc.q, got)
		}
	}
}
