package engine

import (
	"context"
	"strings"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/spantree"
)

// midSpec is the grid deployment the mid-flight fault tests sweep: a
// phased crash plan that strikes at the given sweep boundary while the
// query is in flight, with the given retry budget.
func midSpec(n int, seed uint64, fs faults.Spec, budget int) Spec {
	s := gridSpec(n, seed)
	s.Faults = fs
	s.Retry = Retry{Budget: budget}
	return s
}

// survivorTruth replicates a phased run's post-crash ground truth
// independently of the engine: fork a fresh network, fire the plan (fault
// decisions are pure hash functions — history-free), re-heal exactly like
// the retry loop does, and collect the surviving population.
func survivorTruth(t *testing.T, spec Spec) []uint64 {
	t.Helper()
	spec = spec.Normalize()
	s := NewSession()
	nw, err := s.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	for !nw.Faults.PhaseFired() {
		nw.Faults.Tick()
	}
	hr, _, err := spantree.HealRerooted(nw)
	if err != nil {
		t.Fatal(err)
	}
	return survivingItems(nw, hr.View)
}

// TestResilientFusedBatchMidSweepCrash is the tentpole's acceptance
// scenario: a crash striking at sweep boundary 3 of an 8-member fused
// median batch is detected mid-flight, the tree re-heals, every stepper
// resumes from its checkpointed interval, and the batch's answer comes out
// exact over the post-crash survivors — asserted against independently
// recomputed ground truth. Run with -race.
func TestResilientFusedBatchMidSweepCrash(t *testing.T) {
	spec := midSpec(256, 7, faults.Spec{MidAt: 3, MidCrash: 0.1}, 3)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Spec: spec, Query: Query{Kind: KindMedian}}
	}
	results := New(Options{Workers: 4}).Submit(context.Background(), jobs, WithFusion())

	want := float64(core.TrueMedian(core.SortedCopy(survivorTruth(t, spec))))
	for i, r := range results {
		if r.Failed() {
			t.Fatalf("member %d failed: %s", i, r.Error)
		}
		if !r.Fused {
			t.Errorf("member %d did not fuse", i)
		}
		if r.Degraded {
			t.Errorf("member %d degraded with budget left (retries %d)", i, r.Retries)
		}
		if r.Retries < 1 {
			t.Errorf("member %d: no retry recorded — the mid-sweep crash never fired?", i)
		}
		if r.Value != want {
			t.Errorf("member %d: median %g != survivor ground truth %g", i, r.Value, want)
		}
		if !r.Exact || !r.TruthKnown {
			t.Errorf("member %d: resumed answer not exact (value %g, truth %g)", i, r.Value, r.Truth)
		}
		if r.SurvivorFrac <= 0 || r.SurvivorFrac >= 1 {
			t.Errorf("member %d: survivor fraction %g out of (0,1)", i, r.SurvivorFrac)
		}
		if r.RepairBits <= 0 {
			t.Errorf("member %d: mid-flight re-heal charged no repair traffic", i)
		}
	}
}

// TestResilientMixedBatchMidSweepCrash exercises the retry loop with
// heterogeneous members: selection searches (median, quantiles, rank) and
// aggregate riders (count, sum, avg) all resume or recompute against the
// same post-crash survivor population.
func TestResilientMixedBatchMidSweepCrash(t *testing.T) {
	spec := midSpec(256, 11, faults.Spec{MidAt: 2, MidCrash: 0.08}, 2)
	queries := []Query{
		{Kind: KindMedian},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.9}},
		{Kind: KindOrderStat, K: 10},
		{Kind: KindCount},
		{Kind: KindSum},
		{Kind: KindAvg},
	}
	jobs := make([]Job, len(queries))
	for i, q := range queries {
		jobs[i] = Job{Spec: spec, Query: q}
	}
	results := New(Options{Workers: 2}).Submit(context.Background(), jobs, WithFusion())

	survivors := survivorTruth(t, spec)
	for i, r := range results {
		if r.Failed() {
			t.Fatalf("%s failed: %s", queries[i].Kind, r.Error)
		}
		if r.Degraded {
			t.Errorf("%s degraded with budget left", queries[i].Kind)
		}
		if !r.Exact {
			t.Errorf("%s: resumed answer inexact (value %g, truth %g)", queries[i].Kind, r.Value, r.Truth)
		}
	}
	if want := float64(len(survivors)); results[3].Value != want {
		t.Errorf("count %g != %g survivors", results[3].Value, want)
	}
}

// TestResilientSoloMatchesFused: a solo fusable query under a phased plan
// runs the same resilient loop as a batch of one and lands on the same
// resumed answer as the fused batch.
func TestResilientSoloMatchesFused(t *testing.T) {
	spec := midSpec(256, 7, faults.Spec{MidAt: 3, MidCrash: 0.1}, 3)
	e := New(Options{Workers: 1})
	solo := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0]
	if solo.Failed() {
		t.Fatalf("solo failed: %s", solo.Error)
	}
	if solo.Retries < 1 {
		t.Error("solo run recorded no retries")
	}
	if !solo.Exact {
		t.Errorf("solo resumed answer inexact: value %g truth %g", solo.Value, solo.Truth)
	}
	want := float64(core.TrueMedian(core.SortedCopy(survivorTruth(t, spec))))
	if solo.Value != want {
		t.Errorf("solo median %g != survivor ground truth %g", solo.Value, want)
	}
}

// TestResilientSerialVsParallelIdentical pins the schedule identity under
// mid-flight faults: the sequential schedule and a team
// must resume — on the re-healed engine too — to byte-identical results.
// Run with -race.
func TestResilientSerialVsParallelIdentical(t *testing.T) {
	for _, kind := range []string{KindMedian, KindCount} {
		spec := midSpec(256, 5, faults.Spec{MidAt: 2, MidCrash: 0.1}, 2)
		variant := func(workers int) Result {
			r := pinned(workers).Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: kind}}})[0]
			if r.Failed() {
				t.Fatalf("%s with %d tree workers failed: %s", kind, workers, r.Error)
			}
			return r
		}
		ser, par := variant(1), variant(teamWorkers)
		if ser.Value != par.Value || ser.Retries != par.Retries ||
			ser.Degraded != par.Degraded || ser.SurvivorFrac != par.SurvivorFrac ||
			ser.Truth != par.Truth {
			t.Errorf("%s: sequential (%g, r%d, d%v, s%g) != team (%g, r%d, d%v, s%g)",
				kind, ser.Value, ser.Retries, ser.Degraded, ser.SurvivorFrac,
				par.Value, par.Retries, par.Degraded, par.SurvivorFrac)
		}
	}
}

// TestDegradedBudgetZero: with no retry budget, the first mid-sweep
// failure degrades the answer instead of erroring — Degraded set, no truth
// claim, and the survivor fraction matching an independent replication of
// the fault plan.
func TestDegradedBudgetZero(t *testing.T) {
	spec := midSpec(256, 7, faults.Spec{MidAt: 3, MidCrash: 0.1}, 0).Normalize()
	e := New(Options{Workers: 1})
	r := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0]
	if r.Failed() {
		t.Fatalf("budget-0 run failed instead of degrading: %s", r.Error)
	}
	if !r.Degraded {
		t.Fatal("budget-0 run did not degrade")
	}
	if r.TruthKnown || r.Exact {
		t.Error("degraded answer claims a ground truth")
	}
	if r.Retries != 0 {
		t.Errorf("budget-0 run consumed %d retries", r.Retries)
	}

	// Replicate the plan to compute the expected survivor fraction.
	s := NewSession()
	nw, err := s.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	for !nw.Faults.PhaseFired() {
		nw.Faults.Tick()
	}
	want := float64(nw.N()-nw.Faults.ExcludedCount()) / float64(nw.N())
	if r.SurvivorFrac != want {
		t.Errorf("survivor fraction %g != replicated %g", r.SurvivorFrac, want)
	}
	if !strings.Contains(r.Detail, "degraded") {
		t.Errorf("degraded detail %q does not say so", r.Detail)
	}
}

// TestDegradedAnswerReportsItsSweeps: an answer the retry budget degraded
// reports the sweeps its killed attempt ran and paid for, solo and fused.
// The strike kills the convergecast at tick MidAt of the phase clock and
// the MinMax round is tick 1, so MidAt 4 leaves two sweeps run.
func TestDegradedAnswerReportsItsSweeps(t *testing.T) {
	spec := midSpec(1024, 1, faults.Spec{MidAt: 4, MidCrash: 0.2}, 0)
	median := Job{Spec: spec, Query: Query{Kind: KindMedian}}
	e := New(Options{Workers: 1})
	solo := e.Submit(context.Background(), []Job{median})
	fused := e.Submit(context.Background(), []Job{median, {Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.9}}}, WithFusion())
	for _, r := range append(solo, fused...) {
		if r.Failed() || !r.Degraded {
			t.Fatalf("%s fused=%v: error %q, degraded %v; want a degraded answer", r.Query, r.Fused, r.Error, r.Degraded)
		}
		if r.SharedSweeps != 2 {
			t.Errorf("%s fused=%v: degraded answer reports %d sweeps, want the 2 its attempt ran (%d bits/node)", r.Query, r.Fused, r.SharedSweeps, r.BitsPerNode)
		}
	}
}

// TestRootKillRerootsAndConverges: killing the root mid-sweep re-roots the
// heal at a survivor and the resumed run converges exactly — or, with no
// budget, degrades cleanly rather than erroring.
func TestRootKillRerootsAndConverges(t *testing.T) {
	fs := faults.Spec{MidAt: 2, MidKillRoot: true}
	spec := midSpec(256, 3, fs, 2)
	e := New(Options{Workers: 1})

	r := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0]
	if r.Failed() {
		t.Fatalf("root-kill run failed: %s", r.Error)
	}
	if r.Retries < 1 {
		t.Error("root kill fired but no retry recorded")
	}
	if !r.Exact {
		t.Errorf("re-rooted answer inexact: value %g truth %g", r.Value, r.Truth)
	}
	if r.SurvivorFrac >= 1 {
		t.Errorf("survivor fraction %g should drop below 1 after the root died", r.SurvivorFrac)
	}

	cnt := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindCount}}})[0]
	if cnt.Failed() || !cnt.Exact {
		t.Fatalf("root-kill count: failed=%v exact=%v (%s)", cnt.Failed(), cnt.Exact, cnt.Error)
	}

	degraded := e.Submit(context.Background(), []Job{{Spec: midSpec(256, 3, fs, 0), Query: Query{Kind: KindMedian}}})[0]
	if degraded.Failed() {
		t.Fatalf("budget-0 root kill errored instead of degrading: %s", degraded.Error)
	}
	if !degraded.Degraded {
		t.Error("budget-0 root kill did not degrade")
	}
}

// TestPhasedFaultSupport: kinds outside the resilient and natively
// degrading families must reject phased plans with an explanation.
func TestPhasedFaultSupport(t *testing.T) {
	fs := faults.Spec{MidAt: 2, MidCrash: 0.05}
	e := New(Options{Workers: 1})

	for _, q := range []Query{{Kind: KindQDigest}, {Kind: KindDistinct}, {Kind: KindCollectAll}, {Kind: KindMedian, Where: lessThan(100)}} {
		r := e.Submit(context.Background(), []Job{{Spec: midSpec(64, 1, fs, 1), Query: q}})[0]
		if !r.Failed() || !strings.Contains(r.Error, "phased") {
			t.Errorf("%s accepted a phased plan (error %q)", q, r.Error)
		}
	}

	// Gossip degrades natively past the fire: the run completes (the
	// epidemic keeps mixing over the survivors) without retry machinery.
	g := e.Submit(context.Background(), []Job{{Spec: midSpec(64, 1, faults.Spec{MidAt: 2, MidCrash: 0.03}, 0), Query: Query{Kind: KindGossip}}})[0]
	if g.Failed() {
		t.Errorf("gossip under a phased plan failed: %s", g.Error)
	}

	// Robust mode has no mid-flight story yet.
	rb := e.Submit(context.Background(), []Job{{Spec: midSpec(64, 1, fs, 1), Query: Query{Kind: KindMedian, Robust: true}}})[0]
	if !rb.Failed() || !strings.Contains(rb.Error, "phased") {
		t.Errorf("robust mode accepted a phased plan (error %q)", rb.Error)
	}
}

// TestPhasedUnfiredIsExact: a phased plan whose boundary the query never
// reaches (or whose rates kill nobody) must leave the answer exact and
// unretried — arming the machinery costs nothing when nothing strikes.
func TestPhasedUnfiredIsExact(t *testing.T) {
	// Boundary far beyond any median schedule.
	spec := midSpec(256, 9, faults.Spec{MidAt: 500, MidCrash: 0.5}, 2)
	e := New(Options{Workers: 1})
	r := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0]
	if r.Failed() {
		t.Fatalf("unfired phased run failed: %s", r.Error)
	}
	if r.Retries != 0 || r.Degraded {
		t.Errorf("unfired plan consumed retries=%d degraded=%v", r.Retries, r.Degraded)
	}
	if !r.Exact {
		t.Errorf("unfired phased run inexact: value %g truth %g", r.Value, r.Truth)
	}
	if r.SurvivorFrac != 0 {
		t.Errorf("unfired plan reported survivor fraction %g", r.SurvivorFrac)
	}
}

// TestPhasedSoloReportsSeeding pins a seeded solo selection's seeding
// outcome under a phased plan: the batch of one runs the seeded search the
// unphased solo run does and reports its seeded sweeps and seed hit alike,
// whether or not the strike fires before the search ends.
func TestPhasedSoloReportsSeeding(t *testing.T) {
	q := Query{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: 1500, Hi: 2500}}}
	plain := Spec{Topology: "grid", N: 1024, Seed: 1}
	jobs := []Job{{Spec: plain, Query: q}}
	for _, fs := range []string{"crash@sweep=50=0.1", "crash@sweep=2=0.05"} {
		spec := plain
		var err error
		if spec.Faults, err = faults.ParseSpec(fs); err != nil {
			t.Fatal(err)
		}
		spec.Retry.Budget = 2
		jobs = append(jobs, Job{Spec: spec, Query: q})
	}
	res := New(Options{Workers: 1}).Submit(context.Background(), jobs)
	for i, r := range res {
		if r.Failed() || !r.Exact {
			t.Fatalf("job %d: error %q, exact %v", i, r.Error, r.Exact)
		}
	}
	want, unfired, fired := res[0], res[1], res[2]
	if want.SeededSweeps == 0 || !want.SeedHit {
		t.Fatalf("unphased seeded median: %d seeded sweeps, hit %v; the window holds the median %g", want.SeededSweeps, want.SeedHit, want.Value)
	}
	if unfired.Retries != 0 || unfired.Value != want.Value || unfired.SharedSweeps != want.SharedSweeps ||
		unfired.SeededSweeps != want.SeededSweeps || unfired.SeedHit != want.SeedHit {
		t.Errorf("unfired strike: %g in %d sweeps, %d seeded, hit %v (retries %d); unphased %g in %d, %d seeded, hit %v",
			unfired.Value, unfired.SharedSweeps, unfired.SeededSweeps, unfired.SeedHit, unfired.Retries,
			want.Value, want.SharedSweeps, want.SeededSweeps, want.SeedHit)
	}
	if fired.Retries == 0 || fired.SeededSweeps == 0 {
		t.Errorf("fired strike: %d retries, %d seeded sweeps; the resumed search is seeded", fired.Retries, fired.SeededSweeps)
	}
}
