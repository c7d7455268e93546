package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sensoragg/internal/faults"
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

// TestDeadlineEveryRoute holds the one deadline to the old dispatcher
// (unit_oracle_test.go) on every route a unit takes: a median's batch of
// one, a count's alone arm, qdigest's private schedule, a robust unit of
// one, and a fusion group whose median has a twin. A deadline no query can
// meet fails every job with the deadline error, a cancelled context fails
// every job with the context error at its own index, and a 1-minute
// deadline changes no Result but WallNS.
func TestDeadlineEveryRoute(t *testing.T) {
	awaitAbandoned(t)
	spec := gridSpec(256, 7)
	routes := []struct {
		name    string
		queries []Query
	}{
		{"batch of one", []Query{{Kind: KindMedian}}},
		{"alone", []Query{{Kind: KindCount}}},
		{"solo", []Query{{Kind: KindQDigest}}},
		{"robust", []Query{{Kind: KindMedian, Robust: true}}},
		{"group+twin", []Query{{Kind: KindMedian}, {Kind: KindQuantile, Phi: 0.9}, {Kind: KindMedian}}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range routes {
		jobs := make([]Job, len(rt.queries))
		for i, q := range rt.queries {
			jobs[i] = Job{ID: fmt.Sprint(rt.name, i), Spec: spec, Query: q}
		}
		if u := planUnits(jobs, true).units; len(u) != 1 {
			t.Fatalf("%s: planned %d units, want one", rt.name, len(u))
		}
		// submit runs jobs under ctx and timeout, fused, and holds every
		// Result to the old dispatcher's, each side on an engine of its own.
		submit := func(ctx context.Context, timeout time.Duration) []Result {
			got := New(Options{Workers: 2, Timeout: timeout}).Submit(ctx, jobs, WithFusion())
			want := New(Options{Workers: 2, Timeout: timeout}).unitOracleSubmit(ctx, jobs, true)
			for i := range jobs {
				sameResult(t, fmt.Sprintf("%s, timeout %v, job %d against the oracle", rt.name, timeout, i), got[i], want[i])
			}
			return got
		}
		for i, r := range submit(context.Background(), time.Nanosecond) {
			if r.Error != "engine: query exceeded 1ns deadline" || r.ID != jobs[i].ID {
				t.Errorf("%s, job %d under 1ns: %+v, want the deadline error", rt.name, i, r)
			}
		}
		for _, timeout := range []time.Duration{time.Nanosecond, time.Minute} {
			for i, r := range submit(cancelled, timeout) {
				if r.Error != context.Canceled.Error() || r.ID != jobs[i].ID {
					t.Errorf("%s, job %d, context cancelled, timeout %v: %+v, want the context error", rt.name, i, timeout, r)
				}
			}
		}
		free, timed := submit(context.Background(), 0), submit(context.Background(), time.Minute)
		for i := range jobs {
			if free[i].Failed() || free[i].Fused != (len(jobs) > 1) {
				t.Errorf("%s, job %d: %+v, want an answer, fused only in the group", rt.name, i, free[i])
			}
			sameResult(t, fmt.Sprintf("%s, job %d, no deadline against 1 minute", rt.name, i), free[i], timed[i])
		}
	}
}

// TestUnitOfOneStopsInPlace: a deadline no query can meet stops a unit of
// one's plane after its MinMax round, before its first probe sweep, as it
// stops a group's and then its members' re-runs, so each plane ran one
// sweep when Submit returns; and a context cancelled while a unit of one
// runs fails its job with the context error, even when its arm, which
// never looks at the context, answers.
func TestUnitOfOneStopsInPlace(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	spec := gridSpec(256, 7)
	for _, tc := range []struct {
		queries          []Query
		planes, detached int64
	}{
		{[]Query{{Kind: KindMedian}}, 1, 0},
		{[]Query{{Kind: KindMedian}, {Kind: KindQuantile, Phi: 0.9}}, 3, 2},
	} {
		jobs := make([]Job, len(tc.queries))
		for i, q := range tc.queries {
			jobs[i] = Job{Spec: spec, Query: q}
		}
		sk := obs.Enable()
		New(Options{Workers: 2, Timeout: time.Nanosecond}).Submit(context.Background(), jobs, WithFusion())
		sweeps, detached := sk.Sweeps.Value(), sk.FusionDetach.Value()
		obs.Disable()
		if sweeps != tc.planes || detached != tc.detached {
			t.Errorf("%d jobs under 1ns: %d sweeps, %d fused members detached; want %d and %d",
				len(jobs), sweeps, detached, tc.planes, tc.detached)
		}
	}

	qd := kindOf(KindQDigest)
	solo := qd.solo
	t.Cleanup(func() { qd.solo = solo })
	ctx, cancel := context.WithCancel(context.Background())
	qd.solo = func(r run) (float64, string, error) {
		cancel()
		return solo(r)
	}
	job := Job{ID: "qdigest", Spec: spec, Query: Query{Kind: KindQDigest}}
	if r := New(Options{Workers: 2}).Submit(ctx, []Job{job})[0]; r.Error != context.Canceled.Error() || r.ID != job.ID {
		t.Errorf("cancelled mid-run: %+v, want the context error", r)
	}
}

// TestPanicEveryRoute holds a panicking unit to the old dispatcher: a unit
// of one fails in place with the panic, or with the deadline error when it
// returns past its deadline (the clock decides), and a fusion group that
// panics runs its members again as units of one, which answer as their own
// Submits do. The panics are planted in the kind table: qdigest's solo arm,
// and the quantile's batch detail, which only a fused batch reads.
func TestPanicEveryRoute(t *testing.T) {
	awaitAbandoned(t)
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
		jobs    []Job
		timeout time.Duration
		want    string // every job's error; "" wants each job's own answer
	}{
		{alone, 0, "engine: query panicked: planted"},
		{alone, time.Nanosecond, "engine: query exceeded 1ns deadline"},
		{group, 0, ""},
		{group, time.Minute, ""},
	} {
		got := New(Options{Workers: 2, Timeout: tc.timeout}).Submit(context.Background(), tc.jobs, WithFusion())
		want := New(Options{Workers: 2, Timeout: tc.timeout}).unitOracleSubmit(context.Background(), tc.jobs, true)
		for i, job := range tc.jobs {
			label := fmt.Sprintf("%s, timeout %v", job.ID, tc.timeout)
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

// awaitAbandoned makes t, which runs the old dispatcher under deadlines
// it cannot meet, wait at its end until the runs that dispatcher left in
// the background have returned, so they meter no later test's sweeps.
func awaitAbandoned(t *testing.T) {
	n := runtime.NumGoroutine()
	t.Cleanup(func() {
		for give := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > n && time.Now().Before(give); {
			time.Sleep(time.Millisecond)
		}
	})
}
