package engine

import (
	"context"
	"strings"
	"testing"

	"sensoragg/internal/faults"
)

// runOK executes one job on a fresh single-worker engine and fails the test
// on error.
func runOK(t *testing.T, job Job) Result {
	t.Helper()
	r := New(Options{Workers: 1}).Submit(context.Background(), []Job{job})[0]
	if r.Failed() {
		t.Fatalf("%s on %s: %s", job.Query, job.Spec.Normalize(), r.Error)
	}
	return r
}

// TestBatchedMatchesUnbatchedSelection is the probe plane's acceptance
// property: for every selection kind, every probe width, and every fault
// plan whose counts stay exact (reliable, crash-only, linkfail — the
// structural faults heal before the query), the k-ary batched search must
// return exactly the value and truth the width-1 binary search returns.
// (Message-level drop/dup plans sequence per-edge fault decisions by
// message count, so the two paths legitimately see different corruption;
// their determinism is covered by the engine-variant identity tests.)
func TestBatchedMatchesUnbatchedSelection(t *testing.T) {
	plans := map[string]faults.Spec{
		"reliable":  {},
		"crash5%":   {Crash: 0.05},
		"linkfail":  {LinkFail: 0.03},
		"crash+lf%": {Crash: 0.04, LinkFail: 0.02},
	}
	queries := []Query{
		{Kind: KindMedian},
		{Kind: KindOrderStat, K: 17},
		{Kind: KindQuantile, Phi: 0.9},
		{Kind: KindQuantile, Phi: 0.001},
		{Kind: KindQuantile, Phi: 1},
	}
	for planName, fs := range plans {
		for _, q := range queries {
			for seed := uint64(1); seed <= 3; seed++ {
				spec := gridSpec(144, seed)
				spec.Faults = fs
				unbatched := q
				unbatched.ProbeWidth = 1
				ref := runOK(t, Job{Spec: spec, Query: unbatched})
				for _, width := range []int{0, 4, 8, 32} {
					batched := q
					batched.ProbeWidth = width
					got := runOK(t, Job{Spec: spec, Query: batched})
					if got.Value != ref.Value || got.Truth != ref.Truth || got.Exact != ref.Exact {
						t.Errorf("%s/%s seed %d width %d: (value %g truth %g exact %v) != unbatched (%g %g %v)",
							planName, q, seed, width,
							got.Value, got.Truth, got.Exact, ref.Value, ref.Truth, ref.Exact)
					}
					if got.Crashed != ref.Crashed || got.Unreachable != ref.Unreachable || got.RepairBits != ref.RepairBits {
						t.Errorf("%s/%s seed %d width %d: fault impact diverged", planName, q, seed, width)
					}
				}
			}
		}
	}
}

// TestBatchedCutsSweepsAndMessages pins the perf shape end-to-end on the
// default 4096-node deployment: the ≥3x probe-sweep compression (asserted
// probe-for-probe in core's TestBatchedSweepCompression) shows up here as a
// ≥2.5x cut in total protocol messages — the end-to-end count includes the
// MinMax round both paths share, which dilutes the pure probe ratio.
func TestBatchedCutsSweepsAndMessages(t *testing.T) {
	spec := Spec{Topology: "grid", N: 4096, Workload: "uniform", Seed: 1}
	unbatched := runOK(t, Job{Spec: spec, Query: Query{Kind: KindMedian, ProbeWidth: 1}})
	batched := runOK(t, Job{Spec: spec, Query: Query{Kind: KindMedian}})
	if batched.Value != unbatched.Value {
		t.Fatalf("batched median %g != unbatched %g", batched.Value, unbatched.Value)
	}
	// Every sweep is one broadcast + one convergecast over the same tree,
	// so messages are proportional to sweeps: 2 + 14 unbatched vs 1 + 5.
	if 5*batched.Messages > 2*unbatched.Messages {
		t.Errorf("batched median used %d messages vs %d unbatched — want ≥2.5x fewer",
			batched.Messages, unbatched.Messages)
	}
	if !strings.Contains(batched.Detail, "k-ary sweeps") {
		t.Errorf("batched median did not take the k-ary path: %q", batched.Detail)
	}
}

// TestQuantilesMatchesSeparateQuantiles: the shared-schedule multi-quantile
// must return exactly the per-phi answers of separate quantile queries, and
// must cost fewer messages than issuing them separately.
func TestQuantilesMatchesSeparateQuantiles(t *testing.T) {
	phis := []float64{0.1, 0.25, 0.5, 0.9, 0.99}
	for _, fs := range []faults.Spec{{}, {Crash: 0.05}} {
		spec := gridSpec(256, 7)
		spec.Faults = fs
		multi := runOK(t, Job{Spec: spec, Query: Query{Kind: KindQuantiles, Phis: phis}})
		if len(multi.Values) != len(phis) || len(multi.Truths) != len(phis) {
			t.Fatalf("quantiles returned %d values / %d truths for %d phis",
				len(multi.Values), len(multi.Truths), len(phis))
		}
		var separateMessages int64
		for i, phi := range phis {
			one := runOK(t, Job{Spec: spec, Query: Query{Kind: KindQuantile, Phi: phi, ProbeWidth: 1}})
			if multi.Values[i] != one.Value || multi.Truths[i] != one.Truth {
				t.Errorf("faults=%s phi=%g: quantiles (%g, truth %g) != quantile (%g, truth %g)",
					fs, phi, multi.Values[i], multi.Truths[i], one.Value, one.Truth)
			}
			separateMessages += one.Messages
		}
		if !multi.Exact {
			t.Errorf("faults=%s: multi-quantile not exact: values %v truths %v", fs, multi.Values, multi.Truths)
		}
		if multi.Messages*2 >= separateMessages {
			t.Errorf("faults=%s: shared schedule cost %d messages vs %d separate — want <half",
				fs, multi.Messages, separateMessages)
		}
	}
}

// TestFusedMatchesSeparateAggregates: one fused vector sweep must report
// exactly what four separate COUNT/SUM/MIN/MAX queries report — including
// over a healed tree — for a quarter of the sweeps.
func TestFusedMatchesSeparateAggregates(t *testing.T) {
	for _, fs := range []faults.Spec{{}, {Crash: 0.05}} {
		spec := gridSpec(256, 3)
		spec.Faults = fs
		fused := runOK(t, Job{Spec: spec, Query: Query{Kind: KindFused}})
		if len(fused.Values) != 4 {
			t.Fatalf("fused returned %d values, want 4", len(fused.Values))
		}
		var separateMessages int64
		for i, kind := range []string{KindCount, KindSum, KindMin, KindMax} {
			one := runOK(t, Job{Spec: spec, Query: Query{Kind: kind}})
			if fused.Values[i] != one.Value || fused.Truths[i] != one.Truth {
				t.Errorf("faults=%s: fused %s = %g (truth %g), separate %g (truth %g)",
					fs, kind, fused.Values[i], fused.Truths[i], one.Value, one.Truth)
			}
			separateMessages += one.Messages
		}
		if !fused.Exact {
			t.Errorf("faults=%s: fused sweep inexact: %v vs %v", fs, fused.Values, fused.Truths)
		}
		// MIN and MAX share one MinMax sweep each, so "separate" is three
		// sweeps' worth of messages minimum; fused must still halve it.
		if fused.Messages*2 >= separateMessages {
			t.Errorf("faults=%s: fused sweep cost %d messages vs %d separate — want <half",
				fs, fused.Messages, separateMessages)
		}
		// avg rides the same sweep.
		withAvg := runOK(t, Job{Spec: spec, Query: Query{Kind: KindFused, Aggs: []string{"avg", "count"}}})
		if withAvg.Values[0] != fused.Values[1]/fused.Values[0] {
			t.Errorf("faults=%s: fused avg %g != sum/count %g", fs, withAvg.Values[0], fused.Values[1]/fused.Values[0])
		}
	}

	// Unknown aggregate names fail loudly.
	bad := New(Options{Workers: 1}).Submit(context.Background(),
		[]Job{{Spec: gridSpec(64, 1), Query: Query{Kind: KindFused, Aggs: []string{"median"}}}})[0]
	if !bad.Failed() || !strings.Contains(bad.Error, "unknown fused aggregate") {
		t.Errorf("bad fused agg: %+v", bad.Error)
	}
}

// TestQuantilesValidation: the engine rejects malformed multi-quantile
// queries with explanatory errors.
func TestQuantilesValidation(t *testing.T) {
	e := New(Options{Workers: 1})
	for _, tc := range []struct {
		phis []float64
		want string
	}{
		{nil, "at least one phi"},
		{[]float64{0}, "out of (0,1]"},
		{[]float64{0.5, 1.2}, "out of (0,1]"},
	} {
		r := e.Submit(context.Background(), []Job{{Spec: gridSpec(64, 1), Query: Query{Kind: KindQuantiles, Phis: tc.phis}}})[0]
		if !r.Failed() || !strings.Contains(r.Error, tc.want) {
			t.Errorf("phis %v: error %q, want containing %q", tc.phis, r.Error, tc.want)
		}
	}
}
