package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/obs"
	"sensoragg/internal/wire"
)

// These tests hold the twin rule — equal jobs of one Submit run once — to
// twin_oracle_test.go, where every job ran on its own. Run with -race.

// twinQueries is the statement pool the generated job lists draw from:
// every fusable kind (one with a rank no population holds, one whose slot
// fails), robust median/quantiles/count/sum, WHERE (two jobs
// may share one predicate pointer), the seeded randomized kinds, and
// distinct.
func twinQueries() []Query {
	low, high := wire.Less(200), wire.GreaterEq(100)
	return []Query{
		{Kind: KindMedian},
		{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: 100, Hi: 180}}},
		{Kind: KindOrderStat, K: 7},
		{Kind: KindOrderStat, K: 1000}, // out of range: its search fails
		{Kind: KindQuantile, Phi: 1.5}, // out of range: its batch slot fails
		{Kind: KindQuantile, Phi: 0.3},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.9}},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.9}, SeedWindows: []core.SeedWindow{{Lo: 50, Hi: 90}, {Lo: 150, Hi: 250}, {Lo: 300, Hi: 400}}},
		{Kind: KindFused},
		{Kind: KindFused, Aggs: []string{"count", "avg"}},
		{Kind: KindMin}, {Kind: KindMax}, {Kind: KindCount}, {Kind: KindSum}, {Kind: KindAvg},
		{Kind: KindMedian, Robust: true},
		{Kind: KindQuantiles, Phis: []float64{0.5, 0.9}, Robust: true},
		{Kind: KindCount, Robust: true},
		{Kind: KindSum, Robust: true},
		{Kind: KindCount, Where: &low},
		{Kind: KindMedian, Where: &high},
		{Kind: KindApxMedian},
		{Kind: KindSampling},
		{Kind: KindGossip},
		{Kind: KindDistinct},
	}
}

// twinJobs draws a job list with duplicates from rng: a few base
// statements (query, overlay, run seed), some with a variant that differs
// from its base in exactly one of the fields the twin key reads — the
// overlay, the run seed or the seed windows — and then every job a
// statement drawn from those with replacement.
func twinJobs(rng *rand.Rand, spec Spec) []Job {
	pool := twinQueries()
	overlays := []*Overlay{nil, twinOverlay(rng, spec, 1), twinOverlay(rng, spec, 2)}
	var stmts []Job
	for range 5 {
		base := Job{Spec: spec, Query: pool[rng.IntN(len(pool))],
			Overlay: overlays[rng.IntN(len(overlays))], RunSeed: uint64(rng.IntN(2)) * 7}
		stmts = append(stmts, base)
		if rng.IntN(2) == 0 {
			continue
		}
		v := base
		switch rng.IntN(3) {
		case 0:
			v.Overlay = overlays[(slices.Index(overlays, base.Overlay)+1)%len(overlays)]
		case 1:
			v.RunSeed = 7 - base.RunSeed
		default:
			v.Query.SeedWindows = make([]core.SeedWindow, max(1, len(base.Query.Phis)))
			for k := range v.Query.SeedWindows {
				v.Query.SeedWindows[k] = core.SeedWindow{Lo: 0, Hi: uint64(rng.IntN(400))}
			}
		}
		stmts = append(stmts, v)
	}
	jobs := make([]Job, 6+rng.IntN(8))
	for i := range jobs {
		jobs[i] = stmts[rng.IntN(len(stmts))]
		jobs[i].ID = fmt.Sprintf("j%d", i)
	}
	return jobs
}

// twinEdges is a list the draws rarely make: a job whose batch slot fails
// ahead of two members and their twins, all in one fusion group.
func twinEdges(spec Spec) []Job {
	qs := []Query{{Kind: KindQuantile, Phi: 1.5}, {Kind: KindMedian}, {Kind: KindCount},
		{Kind: KindMedian}, {Kind: KindQuantile, Phi: 1.5}, {Kind: KindSum}}
	jobs := make([]Job, len(qs))
	for i, q := range qs {
		jobs[i] = Job{ID: fmt.Sprintf("e%d", i), Spec: spec, Query: q}
	}
	return jobs
}

// twinOverlay is an epoch's worth of readings for spec's deployment.
func twinOverlay(rng *rand.Rand, spec Spec, epoch int) *Overlay {
	spec = spec.Normalize()
	ov := &Overlay{Epoch: epoch, Values: make([]uint64, spec.N)}
	for i := range ov.Values {
		ov.Values[i] = rng.Uint64N(spec.MaxX)
	}
	return ov
}

// TestTwinsMatchOracle: over twinEdges and generated job lists with
// duplicates, under every plan shape, with and without fusion, on one
// worker and three, every Result of Submit equals the oracle's in every
// field but WallNS — the per-job meters, Fused, SharedSweeps, SeedHit and
// Retries included.
func TestTwinsMatchOracle(t *testing.T) {
	plans := []struct {
		name  string
		plan  faults.Spec
		retry Retry
	}{
		{"reliable", faults.Spec{}, Retry{}},
		{"crash", faults.Spec{Crash: 0.05}, Retry{}},
		{"byz", faults.Spec{Byz: 0.05}, Retry{}},
		{"phased", faults.Spec{MidAt: 2, MidCrash: 0.05}, Retry{Budget: 1}},
	}
	rounds := 7
	if testing.Short() {
		rounds = 1
	}
	twins := 0
	for pi, pl := range plans {
		for round := range rounds {
			spec := gridSpec(100, uint64(round+1))
			spec.Faults, spec.Retry = pl.plan, pl.retry
			jobs := twinEdges(spec) // round 0; the later rounds draw their lists
			if round > 0 {
				jobs = twinJobs(rand.New(rand.NewPCG(uint64(pi), uint64(round))), spec)
			}
			for _, fuse := range []bool{false, true} {
				if fuse {
					for i, j := range planUnits(jobs, true).twin {
						if i != j {
							twins++
						}
					}
				}
				for _, workers := range []int{1, 3} {
					e := New(Options{Workers: workers})
					var opts []SubmitOption
					if fuse {
						opts = append(opts, WithFusion())
					}
					got := e.Submit(context.Background(), jobs, opts...)
					// A fresh session: e's keeps the Submit's audits.
					want := New(Options{Workers: workers}).oracleRunAll(context.Background(), jobs, fuse)
					for i := range jobs {
						sameResult(t, fmt.Sprintf("%s round %d fuse=%v workers=%d job %d (%s)",
							pl.name, round, fuse, workers, i, jobs[i].Query), got[i], want[i])
					}
				}
			}
		}
	}
	if twins == 0 {
		t.Fatal("the generated job lists hold no twins")
	}
}

// TestTwinsPlan pins what makes a twin: an earlier job with the same
// deployment, run seed, overlay pointer and resolved query. A Submit
// without twins allocates no twin table.
func TestTwinsPlan(t *testing.T) {
	spec := gridSpec(64, 3)
	ov, ov2 := &Overlay{}, &Overlay{}
	med := Query{Kind: KindMedian}
	jobs := []Job{
		{Spec: spec, Query: med},                                                                     // 0
		{Spec: spec.Normalize(), Query: med.WithDefaults()},                                          // 1: twin of 0, defaults resolved
		{Spec: spec, Query: med, RunSeed: spec.Seed},                                                 // 2: twin of 0, the run seed spelled out
		{Spec: spec, Query: med, RunSeed: 9},                                                         // 3
		{Spec: spec, Query: med, Overlay: ov},                                                        // 4
		{Spec: spec, Query: med, Overlay: ov2},                                                       // 5
		{Spec: spec, Query: Query{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: 1, Hi: 9}}}}, // 6
		{Spec: gridSpec(64, 4), Query: med},                                                          // 7
		{Spec: spec, Query: med, Overlay: ov},                                                        // 8: twin of 4
	}
	want := []int{0, 0, 0, 3, 4, 5, 6, 7, 4}
	for _, fuse := range []bool{false, true} {
		if p := planUnits(jobs, fuse); !slices.Equal(p.twin, want) {
			t.Errorf("fuse=%v: twins %v, want %v", fuse, p.twin, want)
		}
	}
	if p := planUnits(jobs[3:8], true); p.twin != nil {
		t.Errorf("a Submit without twins has a twin table %v", p.twin)
	}
}

// TestTwinsComparePredicatesByValue: a WHERE statement parsed once per
// job, as serve.QueryFor parses each, is one statement however many
// predicate pointers carry it — equal predicates make twins, a different
// bound or predicate kind does not.
func TestTwinsComparePredicatesByValue(t *testing.T) {
	spec := gridSpec(64, 3)
	preds := []wire.Pred{wire.Less(500), wire.Less(500), wire.Less(501), wire.GreaterEq(500), wire.Less(500)}
	jobs := make([]Job, len(preds))
	for i := range preds {
		jobs[i] = Job{ID: fmt.Sprint(i), Spec: spec, Query: Query{Kind: KindCount, Where: &preds[i]}}
	}
	jobs = append(jobs, Job{ID: "all", Spec: spec, Query: Query{Kind: KindCount}})
	p := planUnits(jobs, true)
	if want := []int{0, 0, 2, 3, 0, 5}; !slices.Equal(p.twin, want) || len(p.units) != 4 {
		t.Fatalf("%d units, twins %v; want 4 units, twins %v", len(p.units), p.twin, want)
	}
	res := New(Options{Workers: 2}).Submit(context.Background(), jobs)
	for i, r := range res {
		if r.Failed() || !r.Exact || r.ID != jobs[i].ID {
			t.Fatalf("job %d: id %q, error %q, exact %v", i, r.ID, r.Error, r.Exact)
		}
	}
	if res[1].Value != res[0].Value || res[4].Value != res[0].Value {
		t.Errorf("twins answer %g and %g, their job %g", res[1].Value, res[4].Value, res[0].Value)
	}
}

// TestTwinsAreVisible: the engine.submit event counts the jobs answered by
// another job's execution, and queries_total counts executions, not
// answers. Eight robust jobs asking four statements are four twins and
// four solo executions.
func TestTwinsAreVisible(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	sk := obs.Enable()
	spec := gridSpec(256, 5)
	spec.Faults = faults.Spec{Byz: 0.05}
	stmts := []Query{
		{Kind: KindMedian, Robust: true},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.75, 0.9, 0.99}, Robust: true},
		{Kind: KindCount, Robust: true},
		{Kind: KindSum, Robust: true},
	}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprint(i), Spec: spec, Query: stmts[i%len(stmts)]}
	}
	res := New(Options{Workers: 2}).Submit(context.Background(), jobs, WithFusion())
	for i, r := range res {
		if r.Failed() || r.ID != jobs[i].ID {
			t.Fatalf("job %d: id %q, error %q", i, r.ID, r.Error)
		}
	}
	if got := sk.Queries.Value(); got != 4 {
		t.Errorf("queries_total = %d, want 4 executions", got)
	}
	submits, solos := 0, 0
	for _, ev := range sk.Tracer.Last(sk.Tracer.Len()) {
		switch ev.Name {
		case "job.solo":
			solos++
		case "engine.submit":
			submits++
			attrs := map[string]int64{}
			for _, kv := range ev.Attrs() {
				attrs[kv.K] = kv.V
			}
			if attrs["jobs"] != 8 || attrs["units"] != 4 || attrs["twins"] != 4 {
				t.Errorf("engine.submit %v, want jobs 8, units 4, twins 4", attrs)
			}
		}
	}
	if submits != 1 || solos != 4 {
		t.Errorf("trace holds %d engine.submit and %d job.solo events, want 1 and 4", submits, solos)
	}
}
