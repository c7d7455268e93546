package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// fusionBatch is a heterogeneous batch against one deployment: every
// fusable kind at least once, in an order that interleaves selection and
// aggregate members.
func fusionBatch(spec Spec) []Job {
	return []Job{
		{ID: "median", Spec: spec, Query: Query{Kind: KindMedian}},
		{ID: "count", Spec: spec, Query: Query{Kind: KindCount}},
		{ID: "os17", Spec: spec, Query: Query{Kind: KindOrderStat, K: 17}},
		{ID: "quantiles", Spec: spec, Query: Query{Kind: KindQuantiles, Phis: []float64{0.05, 0.25, 0.5, 0.75, 0.95}}},
		{ID: "fusedagg", Spec: spec, Query: Query{Kind: KindFused}},
		{ID: "q90", Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.9}},
		{ID: "sum", Spec: spec, Query: Query{Kind: KindSum}},
		{ID: "avg", Spec: spec, Query: Query{Kind: KindAvg}},
		{ID: "min", Spec: spec, Query: Query{Kind: KindMin}},
		{ID: "max", Spec: spec, Query: Query{Kind: KindMax}},
		{ID: "q01-w4", Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.001, ProbeWidth: 4}},
	}
}

// sameAnswer asserts the answer-identity fields (values, truths, exactness,
// fault impact) match between a fused member and its solo reference.
func sameAnswer(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Failed() != want.Failed() || (got.Failed() && got.Error != want.Error) {
		t.Errorf("%s: error %q vs solo %q", label, got.Error, want.Error)
		return
	}
	if got.Value != want.Value || got.Truth != want.Truth || got.Exact != want.Exact {
		t.Errorf("%s: (value %g truth %g exact %v) != solo (%g %g %v)",
			label, got.Value, got.Truth, got.Exact, want.Value, want.Truth, want.Exact)
	}
	if len(got.Values) != len(want.Values) || len(got.Truths) != len(want.Truths) {
		t.Errorf("%s: vector lengths %d/%d != solo %d/%d",
			label, len(got.Values), len(got.Truths), len(want.Values), len(want.Truths))
		return
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] || got.Truths[i] != want.Truths[i] {
			t.Errorf("%s: slot %d (%g, truth %g) != solo (%g, truth %g)",
				label, i, got.Values[i], got.Truths[i], want.Values[i], want.Truths[i])
		}
	}
	if got.Crashed != want.Crashed || got.Unreachable != want.Unreachable || got.RepairBits != want.RepairBits {
		t.Errorf("%s: fault impact (%d, %d, %d) != solo (%d, %d, %d)",
			label, got.Crashed, got.Unreachable, got.RepairBits,
			want.Crashed, want.Unreachable, want.RepairBits)
	}
}

// TestFusedMatchesUnfusedIdentity is the fusion scheduler's acceptance
// property: for reliable networks and structural fault plans (which heal
// before any counting), every member of a fusion batch reports exactly the
// values, truths, and fault impact its solo run reports — the shared probe
// plane changes the schedule, never the answer.
func TestFusedMatchesUnfusedIdentity(t *testing.T) {
	plans := map[string]faults.Spec{
		"reliable": {},
		"crash5%":  {Crash: 0.05},
		"linkfail": {LinkFail: 0.03},
		"crash+lf": {Crash: 0.04, LinkFail: 0.02},
	}
	for planName, fs := range plans {
		for seed := uint64(1); seed <= 2; seed++ {
			spec := gridSpec(256, seed)
			spec.Faults = fs
			jobs := fusionBatch(spec)
			session := NewSession()
			fused := New(Options{Workers: 2, Session: session}).Submit(context.Background(), jobs, WithFusion())
			solo := New(Options{Workers: 2, Session: session}).Submit(context.Background(), jobs)
			fusedCount := 0
			for i := range jobs {
				label := planName + "/" + jobs[i].ID
				sameAnswer(t, label, fused[i], solo[i])
				if solo[i].Fused {
					t.Errorf("%s: solo run reported fused", label)
				}
				if fused[i].Fused {
					fusedCount++
				}
			}
			if fusedCount != len(jobs) {
				t.Errorf("%s seed %d: only %d of %d jobs fused", planName, seed, fusedCount, len(jobs))
			}
			// All members share one plane: equal shared sweep counts and
			// equal (whole-plane) communication fields.
			for i := 1; i < len(jobs); i++ {
				if fused[i].SharedSweeps != fused[0].SharedSweeps || fused[i].BitsPerNode != fused[0].BitsPerNode {
					t.Errorf("%s seed %d: member %s has sweeps=%d bits=%d, member %s has sweeps=%d bits=%d",
						planName, seed, jobs[i].ID, fused[i].SharedSweeps, fused[i].BitsPerNode,
						jobs[0].ID, fused[0].SharedSweeps, fused[0].BitsPerNode)
				}
			}
		}
	}
}

// TestFusedDeterministic: running the same fused batch twice produces
// byte-identical results, meters included — fusion keeps the engine's
// determinism contract.
func TestFusedDeterministic(t *testing.T) {
	spec := gridSpec(256, 9)
	spec.Faults = faults.Spec{Crash: 0.05}
	jobs := fusionBatch(spec)
	a := New(Options{Workers: 4}).Submit(context.Background(), jobs, WithFusion())
	b := New(Options{Workers: 1}).Submit(context.Background(), jobs, WithFusion())
	for i := range jobs {
		x, y := a[i], b[i]
		x.WallNS, y.WallNS = 0, 0
		if x.BitsPerNode != y.BitsPerNode || x.TotalBits != y.TotalBits || x.Messages != y.Messages ||
			x.Value != y.Value || x.SharedSweeps != y.SharedSweeps {
			t.Errorf("%s: parallel fused run diverged from serial: %+v vs %+v", jobs[i].ID, x, y)
		}
	}
}

// TestFusedSharesSweeps pins the tentpole's win: 8 concurrent medians on
// one deployment fused into a single plane execute the sweeps once — at
// least 2× (in fact ~8×) fewer total tree sweeps and well under half the
// messages of 8 solo batched medians.
func TestFusedSharesSweeps(t *testing.T) {
	spec := Spec{Topology: "grid", N: 1024, Workload: "uniform", Seed: 3}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Spec: spec, Query: Query{Kind: KindMedian}}
	}
	session := NewSession()
	fused := New(Options{Workers: 4, Session: session}).Submit(context.Background(), jobs, WithFusion())
	solo := New(Options{Workers: 4, Session: session}).Submit(context.Background(), jobs)

	soloSweeps, fusedSweeps := 0, fused[0].SharedSweeps
	var soloMessages int64
	for i := range jobs {
		if fused[i].Failed() || solo[i].Failed() {
			t.Fatalf("run failed: fused %q solo %q", fused[i].Error, solo[i].Error)
		}
		if !fused[i].Fused {
			t.Fatalf("job %d did not fuse", i)
		}
		if fused[i].Value != solo[i].Value {
			t.Fatalf("job %d: fused %g != solo %g", i, fused[i].Value, solo[i].Value)
		}
		soloSweeps += solo[i].SharedSweeps
		soloMessages += solo[i].Messages
	}
	if 2*fusedSweeps > soloSweeps {
		t.Errorf("fused batch used %d shared sweeps vs %d solo total — want ≥2x fewer", fusedSweeps, soloSweeps)
	}
	if 2*fused[0].Messages >= soloMessages {
		t.Errorf("fused batch cost %d messages vs %d solo total — want <half", fused[0].Messages, soloMessages)
	}
}

// TestFusionCompatibilityGrouping: jobs that must not fuse — different
// seeds (different deployments/fault streams), non-fusable kinds — run
// solo and still answer exactly as an unfused engine answers them.
func TestFusionCompatibilityGrouping(t *testing.T) {
	jobs := []Job{
		{ID: "m1", Spec: gridSpec(144, 1), Query: Query{Kind: KindMedian}},
		{ID: "m2", Spec: gridSpec(144, 2), Query: Query{Kind: KindMedian}}, // different seed: no fusion
		{ID: "apx", Spec: gridSpec(144, 1), Query: Query{Kind: KindApxMedian}},
		{ID: "stmt", Spec: gridSpec(144, 1), Query: Query{Kind: KindCount, Where: lessThan(300)}},
		{ID: "badphi", Spec: gridSpec(144, 1), Query: Query{Kind: KindQuantile, Phi: 1.5}},
	}
	session := NewSession()
	fusedEng := New(Options{Workers: 2, Session: session})
	fused := fusedEng.Submit(context.Background(), jobs, WithFusion())
	solo := New(Options{Workers: 2, Session: session}).Submit(context.Background(), jobs)
	for i := range jobs {
		if fused[i].Fused {
			t.Errorf("%s: fused although incompatible with every other job", jobs[i].ID)
		}
		if fused[i].Failed() != solo[i].Failed() || fused[i].Error != solo[i].Error {
			t.Errorf("%s: error %q vs solo %q", jobs[i].ID, fused[i].Error, solo[i].Error)
		}
		if fused[i].Value != solo[i].Value {
			t.Errorf("%s: value %g vs solo %g", jobs[i].ID, fused[i].Value, solo[i].Value)
		}
	}
	// The invalid-phi member of an otherwise fusable pair falls back solo
	// and reports the solo error text; its partner still fuses with no one
	// and runs solo too.
	pair := []Job{
		{ID: "good", Spec: gridSpec(144, 5), Query: Query{Kind: KindMedian}},
		{ID: "bad", Spec: gridSpec(144, 5), Query: Query{Kind: KindQuantile, Phi: -1}},
	}
	res := fusedEng.Submit(context.Background(), pair, WithFusion())
	if res[0].Failed() || res[0].Fused {
		t.Errorf("good member: failed=%v fused=%v, want solo success", res[0].Failed(), res[0].Fused)
	}
	if !res[1].Failed() || !strings.Contains(res[1].Error, "out of (0,1]") {
		t.Errorf("bad member: error %q, want solo phi validation", res[1].Error)
	}
}

// batchOn resolves queries into batch slots over the population fe's view
// covers and runs them through the batch driver on fe's plane, with ctx as
// nw's stop when ctx can be done, as the unit runner sets it.
func batchOn(t *testing.T, ctx context.Context, nw *netsim.Network, fe *spantree.FastEngine, queries []Query) (outcome, error) {
	t.Helper()
	truth := &groundTruth{nw: nw, view: fe.View()}
	members := make([]member, len(queries))
	for i := range queries {
		queries[i] = queries[i].WithDefaults()
		mb, err := kindOf(queries[i].Kind).slot(queries[i], truth.count())
		if err != nil {
			t.Fatalf("slot %s: %v", queries[i], err)
		}
		members[i] = mb
	}
	nw.Ctx = nil
	if ctx.Done() != nil {
		nw.Ctx = ctx
	}
	return runBatch(ctx, nw, Spec{}, agg.NewNet(fe), queries, members, outcome{truth: truth})
}

// TestRunFusedDetachAndEmpty drives the batch driver directly: a context
// done before the batch fails every member with the context's error at its
// MinMax round's convergecast, after that round's broadcast, and an empty
// active multiset is the batch-level error.
func TestRunFusedDetachAndEmpty(t *testing.T) {
	g := topology.Grid(8, 8)
	maxX := uint64(256)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX)
	fe := spantree.NewFast(nw)
	queries := func() []Query {
		return []Query{
			{Kind: KindMedian, ProbeWidth: 8},
			{Kind: KindFused, Aggs: []string{"count", "sum"}},
		}
	}
	past, cancelPast := context.WithDeadline(context.Background(), time.Now())
	defer cancelPast()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{past, cancelled} {
		before := nw.Meter.Snapshot()
		o, err := batchOn(t, ctx, nw, fe, queries())
		if err != nil {
			t.Fatalf("runBatch: %v", err)
		}
		for i, m := range o.res.members {
			if m.err != ctx.Err() || m.values != nil || m.aggValues != nil {
				t.Errorf("member %d: want %v with no answer, got %+v", i, ctx.Err(), m)
			}
		}
		// The stop sits before the convergecast: the MinMax round's
		// broadcast, one message per tree edge, is paid.
		if d := nw.Meter.Since(before); o.res.sweeps != 0 || d.Messages != int64(nw.N()-1) {
			t.Errorf("%v: the stopped batch ran %d sweeps and sent %d messages, want 0 and its broadcast's %d", ctx.Err(), o.res.sweeps, d.Messages, nw.N()-1)
		}
	}

	// Deactivate everything: the batch reports the empty multiset.
	net := agg.NewNet(fe)
	net.Filter(wire.Less(0))
	defer net.Reset()
	if _, err := batchOn(t, context.Background(), nw, fe, queries()); err != core.ErrEmpty {
		t.Errorf("empty multiset: err %v, want core.ErrEmpty", err)
	}
}

// TestRunFusedMidBatchDeadlineKeepsResolvedAnswers pins the batch driver's
// member contract when the context's deadline passes *between* sweeps:
// every member is answered or failed with the deadline's error — never a
// "successful" empty result. An aggregate member resolves on sweep 1, a
// width-1 median needs many more sweeps; deadlines from instant to
// generous sweep the stop across the schedule.
func TestRunFusedMidBatchDeadlineKeepsResolvedAnswers(t *testing.T) {
	g := topology.Grid(64, 64)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	wantCount := float64(g.N())
	for _, budget := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond, time.Minute} {
		nw := netsim.New(g, values, maxX)
		queries := []Query{{Kind: KindCount}, {Kind: KindMedian, ProbeWidth: 1}}
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		o, err := batchOn(t, ctx, nw, spantree.NewFast(nw), queries)
		cancel()
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		for i, m := range o.res.members {
			answered := len(m.values) > 0 || len(m.aggValues) > 0
			if m.err == nil && !answered {
				t.Fatalf("budget %v: member %d returned successful-but-empty: %+v", budget, i, m)
			}
			if answered && m.err != nil || m.err != nil && m.err != context.DeadlineExceeded {
				t.Fatalf("budget %v: member %d: %+v, want an answer or the deadline error", budget, i, m)
			}
		}
		// Whenever the aggregate member did resolve, its answer must be
		// the real count — a kept answer is never a partial one.
		if m := o.res.members[0]; len(m.aggValues) == 1 && m.aggValues[0] != wantCount {
			t.Fatalf("budget %v: resolved count %g, want %g", budget, m.aggValues[0], wantCount)
		}
		if budget == time.Minute {
			for i, m := range o.res.members {
				if m.err != nil {
					t.Fatalf("generous budget: member %d abandoned: %+v", i, m)
				}
			}
		}
	}
}

// TestFusedTimeoutMatchesSolo: under a Submit deadline no query can meet, a
// fused engine reports per-query deadline failures just like an unfused one
// — fusion cannot turn one slow query into a batch-wide hang with no
// answers — and under a workable deadline the same fused batch succeeds.
func TestFusedTimeoutMatchesSolo(t *testing.T) {
	spec := Spec{Topology: "grid", N: 1024, Workload: "uniform", Seed: 1}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Spec: spec, Query: Query{Kind: KindMedian}}
	}
	session := NewSession()
	if _, err := session.Template(spec); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Session: session})
	past, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	fused, alone := e.Submit(past, jobs, WithFusion()), e.Submit(past, jobs)
	for i, r := range fused {
		if r.Error != context.DeadlineExceeded.Error() {
			t.Errorf("job %d: error %q, want the deadline error", i, r.Error)
		}
		sameResult(t, fmt.Sprintf("job %d, fused against alone", i), r, alone[i])
	}
	ahead, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i, r := range e.Submit(ahead, jobs, WithFusion()) {
		if r.Failed() {
			t.Errorf("job %d: %s", i, r.Error)
		}
	}
}

// TestRunKeepsInputOrderUnderCancellation pins Run's ordering contract:
// when ctx fires mid-batch, every result — completed or cancelled — still
// sits at its own job's index, so partial results never reorder the tail.
func TestRunKeepsInputOrderUnderCancellation(t *testing.T) {
	for _, fuse := range []bool{false, true} {
		jobs := make([]Job, 40)
		for i := range jobs {
			// Distinct seeds keep the jobs unfusable with each other, so the
			// fused engine exercises the same per-unit cancellation path.
			jobs[i] = Job{ID: string(rune('a' + i%26)), Spec: gridSpec(256, uint64(i+1)),
				Query: Query{Kind: KindMedian}}
			jobs[i].ID = jobs[i].ID + "-" + string(rune('0'+i/26))
		}
		ctx, cancel := context.WithCancel(context.Background())
		var opts []SubmitOption
		if fuse {
			opts = append(opts, WithFusion())
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		results := New(Options{Workers: 2}).Submit(ctx, jobs, opts...)
		sawCancelled := false
		for i, r := range results {
			if r.Failed() && strings.Contains(r.Error, context.Canceled.Error()) {
				sawCancelled = true
				if r.ID != jobs[i].ID {
					t.Fatalf("fuse=%v: cancelled result at %d has ID %q, want %q", fuse, i, r.ID, jobs[i].ID)
				}
				continue
			}
			if r.Failed() {
				t.Errorf("fuse=%v: job %d failed unexpectedly: %s", fuse, i, r.Error)
				continue
			}
			if r.ID != jobs[i].ID {
				t.Fatalf("fuse=%v: result at %d answers job %q, want %q — input order broken", fuse, i, r.ID, jobs[i].ID)
			}
		}
		_ = sawCancelled // timing-dependent; the order assertions above are the contract
	}
}

// TestGroupForksOnce: a fusion group runs on one fork. In [median,
// quantile φ=2] the quantile's slot fails, which fails its job on the
// group's fork, and the median, the one member left, is answered there as
// a unit of one. Each result equals its job's own Submit, the Submit takes
// one fork for both jobs, and no member falls back to a solo run.
func TestGroupForksOnce(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	spec := gridSpec(256, 3)
	jobs := []Job{
		{ID: "median", Spec: spec, Query: Query{Kind: KindMedian}},
		{ID: "bad-phi", Spec: spec, Query: Query{Kind: KindQuantile, Phi: 2}},
	}
	e := New(Options{Workers: 2})
	sk := obs.Enable()
	hits, misses := e.Session().Stats()
	got := e.Submit(context.Background(), jobs, WithFusion())
	h, m := e.Session().Stats()
	if forks := h + m - hits - misses; forks != 1 {
		t.Errorf("the group took %d forks, want 1", forks)
	}
	if n := sk.FusionSolo.Value(); n != 0 {
		t.Errorf("fusion_solo_fallback_total = %d, want 0", n)
	}
	obs.Disable()
	if got[0].Failed() || got[0].Fused || !got[0].Exact || !got[1].Failed() {
		t.Fatalf("median %+v, bad phi %+v: want an exact unfused median and a failed quantile", got[0], got[1])
	}
	for i := range jobs {
		sameResult(t, jobs[i].ID, got[i], New(Options{Workers: 2}).Submit(context.Background(), jobs[i:i+1])[0])
	}
}
