package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
)

// TestEmptyBatchRunsAlone: a fusion group whose mid-sweep strike leaves no
// survivor — every node crashes, the root too — cannot re-heal, and every
// member runs again as a unit of one, answering as its own Submit does. A
// strike at tick 2 kills every member's own run too; one at tick 3 or 4
// comes after the aggregates' own runs end (a count's MinMax round, then
// COUNT(TRUE); the fused aggregate's vector sweep) and before the
// selections' later sweeps, so the count and the fused aggregate answer
// alone where failing the group's members on its fork would fail them.
func TestEmptyBatchRunsAlone(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	for _, at := range []int{2, 3, 4} {
		spec := gridSpec(64, 5)
		spec.Faults = faults.Spec{Seed: 9, MidAt: at, MidCrash: 1, MidKillRoot: true}
		spec.Retry = Retry{Budget: 2}
		jobs := []Job{
			{ID: "median", Spec: spec, Query: Query{Kind: KindMedian}},
			{ID: "q90", Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.9, ProbeWidth: 1}},
			{ID: "count", Spec: spec, Query: Query{Kind: KindCount}},
			{ID: "fused", Spec: spec, Query: Query{Kind: KindFused}},
		}
		if u := planUnits(jobs, true).units; len(u) != 1 {
			t.Fatalf("MidAt %d: planned %d units, want one fusion group", at, len(u))
		}
		sk := obs.Enable()
		got := New(Options{Workers: 2}).Submit(context.Background(), jobs, WithFusion())
		again := sk.FusionSolo.Value()
		obs.Disable()
		if again != int64(len(jobs)) {
			t.Errorf("MidAt %d: fusion_solo_fallback_total = %d, want every member, %d", at, again, len(jobs))
		}
		for i, job := range jobs {
			label := fmt.Sprintf("MidAt %d, %s", at, job.ID)
			if wantOK := at > 2 && (job.Query.Kind == KindCount || job.Query.Kind == KindFused); got[i].Failed() == wantOK || got[i].Fused {
				t.Errorf("%s: %+v, want an unfused answer: %v", label, got[i], wantOK)
			}
			sameResult(t, label+" against its own Submit", got[i], New(Options{Workers: 2}).Submit(context.Background(), jobs[i:i+1])[0])
		}
	}
}

// stopRoute is one route a unit takes: its jobs' deployment and queries,
// the first of which names the kind a test plants a stop in.
type stopRoute struct {
	name    string
	spec    Spec
	queries []Query
}

// stopRoutes are the routes a stop must end: a median's batch of one, a
// count's alone arm, qdigest's private schedule, gossip's rounds, the
// distributed BFS's rounds and single-hop's radio rounds, a robust unit
// (its audit kept), a median healed around structural faults, and a fusion
// group whose median has a twin.
func stopRoutes() []stopRoute {
	grid := gridSpec(256, 7)
	robust, healed := grid, grid
	robust.Faults = faults.Spec{Seed: 5, Byz: 0.04}
	healed.Faults = faults.Spec{Seed: 3, Crash: 0.05, LinkFail: 0.03}
	return []stopRoute{
		{"batch of one", grid, []Query{{Kind: KindMedian}}},
		{"alone", grid, []Query{{Kind: KindCount}}},
		{"solo", grid, []Query{{Kind: KindQDigest}}},
		{"gossip", gridSpec(36, 7), []Query{{Kind: KindGossip}}},
		{"buildtree", grid, []Query{{Kind: KindBuildTree}}},
		{"singlehop", Spec{Topology: "complete", N: 32, Workload: "uniform", Seed: 7}, []Query{{Kind: KindSingleHop}}},
		{"robust", robust, []Query{{Kind: KindMedian, Robust: true}}},
		{"heal", healed, []Query{{Kind: KindMedian}}},
		{"group+twin", grid, []Query{{Kind: KindMedian}, {Kind: KindQuantile, Phi: 0.9}, {Kind: KindMedian}}},
	}
}

// jobs are the route's jobs, planned (fused) into one unit.
func (rt stopRoute) jobs(t *testing.T) []Job {
	t.Helper()
	jobs := make([]Job, len(rt.queries))
	for i, q := range rt.queries {
		jobs[i] = Job{ID: fmt.Sprint(rt.name, i), Spec: rt.spec, Query: q}
	}
	if u := planUnits(jobs, true).units; len(u) != 1 {
		t.Fatalf("%s: planned %d units, want one", rt.name, len(u))
	}
	return jobs
}

// plantStop makes the named kind call stop from inside its unit until t
// ends: a fusable kind's member arm, which resolves its slot after the heal
// and audit, or any other kind's solo arm, which hands stop its run.
func plantStop(t *testing.T, name string, stop func(r *run)) {
	k := kindOf(name)
	if slot := k.member; slot != nil {
		k.member = func(q Query, n uint64) (member, error) {
			stop(nil)
			return slot(q, n)
		}
		t.Cleanup(func() { k.member = slot })
		return
	}
	solo := k.solo
	k.solo = func(r run) (float64, string, error) {
		stop(&r)
		return solo(r)
	}
	t.Cleanup(func() { k.solo = solo })
}

// TestDeadlineEveryRoute holds a context done before Submit to the old
// dispatcher (unit_oracle_test.go) on every route a unit takes: cancelled
// or past its deadline, it forks nothing and fails every job with its error
// at the job's own index, and a context that can be done but never is
// changes no Result but WallNS.
func TestDeadlineEveryRoute(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now())
	defer cancelExpired()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, rt := range stopRoutes() {
		jobs := rt.jobs(t)
		for _, ctx := range []context.Context{cancelled, expired} {
			e := New(Options{Workers: 2})
			got := e.Submit(ctx, jobs, WithFusion())
			if hits, misses := e.Session().Stats(); hits+misses != 0 {
				t.Errorf("%s, %v: a context done before Submit forked %d units", rt.name, ctx.Err(), hits+misses)
			}
			want := New(Options{Workers: 2}).unitOracleSubmit(ctx, jobs, true)
			for i, r := range got {
				sameResult(t, fmt.Sprintf("%s, job %d, %v, against the oracle", rt.name, i, ctx.Err()), r, want[i])
				if r.Error != ctx.Err().Error() || r.ID != jobs[i].ID {
					t.Errorf("%s, job %d, context done (%v): %+v, want its error", rt.name, i, ctx.Err(), r)
				}
			}
		}
		free, stoppable := New(Options{Workers: 2}).Submit(context.Background(), jobs, WithFusion()), New(Options{Workers: 2}).Submit(live, jobs, WithFusion())
		for i := range jobs {
			if free[i].Failed() || free[i].Fused != (len(jobs) > 1) {
				t.Errorf("%s, job %d: %+v, want an answer, fused only in the group", rt.name, i, free[i])
			}
			sameResult(t, fmt.Sprintf("%s, job %d, a context that is never done", rt.name, i), stoppable[i], free[i])
		}
	}
}

// TestUnitOfOneStopsInPlace: a context cancelled inside a unit, on every
// route, stops it at its next sweep or round — one the tree layer or the
// round engine would run next — and fails each job with exactly the
// context's error. A unit of one and a group of two pay no sweep after the
// cancel (the deadline this replaced let a unit of one pay 1 and a group of
// two 3), a round kind sends no message after it, and the group's two fused
// members count as fusion_detach_total, re-running nothing.
func TestUnitOfOneStopsInPlace(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	for _, rt := range stopRoutes() {
		t.Run(rt.name, func(t *testing.T) {
			jobs := rt.jobs(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sk := obs.Enable()
			defer obs.Disable()
			sweeps := int64(-1) // sweeps_total at the cancel
			var nw *netsim.Network
			var at netsim.Snapshot
			plantStop(t, rt.queries[0].Kind, func(r *run) {
				if sweeps < 0 {
					sweeps = sk.Sweeps.Value()
				}
				if r != nil {
					nw, at = r.nw, r.nw.Meter.Snapshot()
				}
				cancel()
			})
			got := New(Options{Workers: 2}).Submit(ctx, jobs, WithFusion())
			for i, r := range got {
				if r.Error != ctx.Err().Error() || r.ID != jobs[i].ID {
					t.Errorf("job %d: %+v, want the context error %q", i, r, ctx.Err())
				}
			}
			if sweeps < 0 {
				t.Fatal("the planted stop never ran")
			}
			if after := sk.Sweeps.Value() - sweeps; after != 0 {
				t.Errorf("%d sweeps after the cancel, want 0", after)
			}
			if nw != nil {
				if d := nw.Meter.Since(at); d.Messages != 0 {
					t.Errorf("%d messages after the cancel, want 0", d.Messages)
				}
			}
			wantDetach := int64(0)
			if len(jobs) > 1 {
				wantDetach = 2
			}
			if d, again := sk.FusionDetach.Value(), sk.FusionSolo.Value(); d != wantDetach || again != 0 {
				t.Errorf("fusion_detach_total %d, fusion_solo_fallback_total %d; want %d and 0", d, again, wantDetach)
			}
		})
	}
}

// TestPanicEveryRoute holds a panicking unit to the old dispatcher: a unit
// of one fails in place with the panic, and a fusion group that panics
// runs its members again as units of one, which answer as their own
// Submits do. The panics are planted in the kind table: qdigest's solo arm,
// and the quantile's batch detail, which only a fused batch reads.
func TestPanicEveryRoute(t *testing.T) {
	qd, qt := kindOf(KindQDigest), kindOf(KindQuantile)
	solo, detail := qd.solo, qt.batchDetail
	qd.solo = func(run) (float64, string, error) { panic("planted") }
	qt.batchDetail = func(member, string) string { panic("planted") }
	t.Cleanup(func() { qd.solo, qt.batchDetail = solo, detail })

	spec := gridSpec(256, 11)
	alone := []Job{{ID: "qdigest", Spec: spec, Query: Query{Kind: KindQDigest}}}
	group := []Job{
		{ID: "median", Spec: spec, Query: Query{Kind: KindMedian}},
		{ID: "q90", Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.9}},
	}
	for _, tc := range []struct {
		jobs []Job
		want string // every job's error; "" wants each job's own answer
	}{
		{alone, "engine: query panicked: planted"},
		{group, ""},
	} {
		got := New(Options{Workers: 2}).Submit(context.Background(), tc.jobs, WithFusion())
		want := New(Options{Workers: 2}).unitOracleSubmit(context.Background(), tc.jobs, true)
		for i, job := range tc.jobs {
			label := job.ID
			sameResult(t, label+" against the oracle", got[i], want[i])
			if tc.want != "" {
				if got[i].Error != tc.want {
					t.Errorf("%s: error %q, want %q", label, got[i].Error, tc.want)
				}
				continue
			}
			if got[i].Failed() || got[i].Fused {
				t.Errorf("%s: %+v, want an unfused answer", label, got[i])
			}
			sameResult(t, label+" against its own Submit", got[i], New(Options{Workers: 2}).Submit(context.Background(), tc.jobs[i:i+1])[0])
		}
	}
}
