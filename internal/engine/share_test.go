package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
)

// These are the identity suites for what one Submit shares between its
// jobs: the byz audit of a robust group and the execution of twins (equal
// jobs). Sharing is host-side only, so the oracle is always the same
// jobs run without a partner to share with. Run with -race.

// sameResult asserts two results are equal in every field but WallNS.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.WallNS, want.WallNS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestSharedAuditMatchesSoloSubmits: R robust jobs of mixed kinds and a
// twin of the first submitted together — three groups, interleaved, so
// three audits and cross-checks are shared — report exactly what each
// reports submitted alone, where it audits for itself. The jobs on seed 3 mix two sketch precisions (the
// default both implicit and explicit), which must not share a cross-check.
// Under drop/dup every job audits alone, so together ≡ alone still holds.
func TestSharedAuditMatchesSoloSubmits(t *testing.T) {
	for _, plan := range []faults.Spec{
		{Byz: 0.05, ByzMode: faults.ByzCorrupt, Crash: 0.02},
		{Byz: 0.05, ByzMode: faults.ByzEquivocate, Crash: 0.02},
		{Byz: 0.05, ByzMode: faults.ByzCollude, Crash: 0.02},
		{Byz: 0.05, Drop: 0.05, Dup: 0.05},
	} {
		mode := plan.String()
		var jobs []Job
		for i, q := range robustQueries() {
			for _, seed := range []uint64{3, 4} {
				spec := gridSpec(256, seed)
				spec.Faults = plan
				job := Job{ID: fmt.Sprintf("%s-%d-%d", q.Kind, i, seed), Spec: spec, Query: q}
				if seed == 3 && i%2 == 1 {
					job.Query.SketchP = 8
				} else if seed == 3 && i == 2 {
					job.Query.SketchP = core.DefaultSketchP
				}
				jobs = append(jobs, job)
			}
		}
		// A twin of job 0 is answered by job 0's execution, and joins no
		// audit group.
		twin := jobs[0]
		twin.ID += "-twin"
		jobs = append(jobs, twin)
		audits := planUnits(jobs, false).audits
		if len(audits) != len(jobs)-1 || audits[0] != audits[4] || audits[2] != audits[6] ||
			audits[0] == audits[1] || audits[0] == audits[2] || audits[1] == audits[2] {
			t.Fatalf("%s: %d of %d jobs share an audit; want all of them, grouped by deployment and sketch precision", mode, len(audits), len(jobs))
		}
		for _, workers := range []int{1, 4} {
			e := New(Options{Workers: workers})
			together := e.Submit(context.Background(), jobs)
			quarantined := 0
			for i, job := range jobs {
				alone := e.Submit(context.Background(), []Job{job})[0]
				// Lost counts can leave a rank out of reach under drop/dup;
				// the failure must then be the same together and alone.
				if alone.Failed() && !plan.MessageLevel() {
					t.Fatalf("%s %s: %s", mode, job.ID, alone.Error)
				}
				quarantined += alone.Quarantined
				sameResult(t, fmt.Sprintf("%s workers=%d %s", mode, workers, job.ID), together[i], alone)
			}
			if quarantined == 0 {
				t.Fatalf("%s: no audit quarantined anything", mode)
			}
		}
	}
}

// TestAuditSharingIsForPartneredRobustJobs pins who gets a shared audit:
// robust jobs under an adversarial plan with a partner on the same
// deployment, run seed, overlay and sketch precision — nobody else.
func TestAuditSharingIsForPartneredRobustJobs(t *testing.T) {
	spec := gridSpec(256, 3)
	spec.Faults = faults.Spec{Byz: 0.05}
	honest := gridSpec(256, 3)
	ov := &Overlay{}
	robust := Query{Kind: KindMedian, Robust: true}
	jobs := []Job{
		{Spec: spec, Query: robust},                                            // 0: partner of 1
		{Spec: spec, Query: Query{Kind: KindCount, Robust: true}},              // 1
		{Spec: spec, Query: Query{Kind: KindMedian}},                           // 2: not robust
		{Spec: honest, Query: robust},                                          // 3: no adversary
		{Spec: honest, Query: robust},                                          // 4
		{Spec: spec, Query: robust, RunSeed: 9},                                // 5: alone on its run seed
		{Spec: spec, Query: robust, Overlay: ov},                               // 6: alone on its overlay
		{Spec: spec, Query: Query{Kind: KindMedian, Robust: true, SketchP: 8}}, // 7: alone on its precision
	}
	audits := planUnits(jobs, true).audits
	if audits[0] == nil || audits[0] != audits[1] {
		t.Fatal("the two robust jobs of one deployment do not share an audit")
	}
	for _, i := range []int{2, 3, 4, 5, 6, 7} {
		if audits[i] != nil {
			t.Errorf("job %d shares an audit; it has nobody to share with", i)
		}
	}
	if none := planUnits(jobs[2:3], true).audits; none != nil {
		t.Error("a Submit without robust jobs allocated audit state")
	}
}

// robustForks returns n forks of one adversarial deployment, each in the
// state a robust job is in when it reaches the audit, with their views.
func robustForks(t *testing.T, fs faults.Spec, n int) ([]*netsim.Network, []*spantree.TreeView) {
	t.Helper()
	spec := gridSpec(256, 3)
	spec.Faults = fs
	s := NewSession()
	nws, views := make([]*netsim.Network, n), make([]*spantree.TreeView, n)
	for i := range nws {
		nw, err := s.Instantiate(spec, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		fe, _, err := spantree.NewFastHealed(nw)
		if err != nil {
			t.Fatal(err)
		}
		nws[i], views[i] = nw, fe.View()
	}
	return nws, views
}

// TestSharedAuditFailureReachesFollowers: when the group's first caller
// fails — by error or by panic — every follower fails with that error. None
// is handed a zero outcome, none has its meter touched, and the panic still
// unwinds the first caller (whose fork must not go back to the pool).
func TestSharedAuditFailureReachesFollowers(t *testing.T) {
	const n = 4
	run := func(t *testing.T, nws []*netsim.Network, views []*spantree.TreeView) (errs []error, panics int) {
		aud := new(auditOnce)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := range nws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						panics++
						mu.Unlock()
					}
				}()
				rep, rnet, err := aud.localize(nws[i], views[i], core.DefaultSketchP)
				mu.Lock()
				defer mu.Unlock()
				if err == nil || rep != nil || rnet != nil {
					t.Errorf("caller %d got (%v, %v, %v) from a failed audit", i, rep, rnet, err)
				}
				errs = append(errs, err)
			}()
		}
		wg.Wait()
		return errs, panics
	}

	t.Run("error", func(t *testing.T) {
		// A dead root cannot be healed toward: the re-heal after the first
		// conviction fails.
		nws, views := robustForks(t, faults.Spec{Byz: 0.2, MidAt: 1, MidKillRoot: true}, n)
		for _, nw := range nws {
			nw.Faults.Tick()
		}
		before := nws[0].Meter.TotalBits()
		errs, panics := run(t, nws, views)
		if panics != 0 || len(errs) != n {
			t.Fatalf("%d errors, %d panics; want %d errors", len(errs), panics, n)
		}
		for _, err := range errs {
			if err.Error() != errs[0].Error() || !strings.Contains(err.Error(), "re-heal") {
				t.Errorf("error %q, first caller's %q", err, errs[0])
			}
		}
		charged := 0
		for _, nw := range nws {
			if nw.Meter.TotalBits() != before {
				charged++
			}
		}
		if charged != 1 {
			t.Errorf("%d forks were charged; only the first caller's may be", charged)
		}
	})

	t.Run("panic", func(t *testing.T) {
		nws, _ := robustForks(t, faults.Spec{Byz: 0.2}, n)
		errs, panics := run(t, nws, make([]*spantree.TreeView, n)) // a nil view panics the audit
		if panics != 1 || len(errs) != n-1 {
			t.Fatalf("%d errors, %d panics; want the first caller to panic and %d followers to fail", len(errs), panics, n-1)
		}
		for _, err := range errs {
			if !strings.HasPrefix(err.Error(), "engine: query panicked:") {
				t.Errorf("follower error %q does not report the first caller's panic", err)
			}
		}
	})
}

// TestWatchedMeterAuditsForItself: a replayed ledger cannot feed the
// watched edge, so a watched fork runs its own audit even inside a group.
func TestWatchedMeterAuditsForItself(t *testing.T) {
	nws, views := robustForks(t, faults.Spec{Byz: 0.1}, 2)
	deep := views[1].Order[len(views[1].Order)-1]
	nws[1].Meter.WatchEdge(views[1].Parent[deep], deep)
	aud := new(auditOnce)
	for i := range nws {
		if _, _, err := aud.localize(nws[i], views[i], core.DefaultSketchP); err != nil {
			t.Fatal(err)
		}
	}
	if nws[1].Meter.WatchedBits() == 0 {
		t.Fatal("the watched fork saw no audit traffic on its edge")
	}
	if nws[0].Meter.TotalBits() != nws[1].Meter.TotalBits() {
		t.Fatalf("total bits %d vs %d", nws[0].Meter.TotalBits(), nws[1].Meter.TotalBits())
	}
}

// duplicateStatements is one statement per fusable kind, two medians that
// differ only in their seed windows (one around the answer, one far from
// it), a rank no population resolves and a phi no path accepts.
func duplicateStatements(median uint64) []Query {
	var qs []Query
	for _, job := range fusionBatch(Spec{}) {
		qs = append(qs, job.Query)
	}
	return append(qs,
		Query{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: median - 1, Hi: median + 1}}},
		Query{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: median + 1000, Hi: median + 1001}}},
		Query{Kind: KindOrderStat, K: 1 << 40},
		Query{Kind: KindQuantile, Phi: 1.5},
	)
}

// TestDuplicateMembersShareOneSlot: a fused batch with every statement
// repeated r times returns, for every copy, what the r = 1 batch returns
// for that statement — answer, truth, every counter, failures included —
// modulo the ID, the wall time and the batch size Detail names.
func TestDuplicateMembersShareOneSlot(t *testing.T) {
	for name, fs := range map[string]faults.Spec{"reliable": {}, "crash": {Crash: 0.03}} {
		spec := gridSpec(400, 5)
		spec.Faults = fs
		e := New(Options{Workers: 2})
		median := uint64(e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0].Value)
		stmts := duplicateStatements(median)
		batch := func(r int) ([]Job, []Result) {
			var jobs []Job
			for c := 0; c < r; c++ {
				for s, q := range stmts {
					jobs = append(jobs, Job{ID: fmt.Sprintf("s%d-c%d", s, c), Spec: spec, Query: q})
				}
			}
			return jobs, e.Submit(context.Background(), jobs, WithFusion())
		}
		_, once := batch(1)
		hit, miss := once[len(stmts)-4], once[len(stmts)-3]
		if !hit.SeedHit || miss.SeedHit || hit.Value != miss.Value {
			t.Fatalf("%s: seeded medians (hit %v, miss %v) do not tell the two windows apart", name, hit.SeedHit, miss.SeedHit)
		}
		if !once[len(stmts)-2].Failed() || !once[len(stmts)-1].Failed() {
			t.Fatalf("%s: the unresolvable rank and the bad phi did not fail", name)
		}
		for _, r := range []int{2, 48} {
			jobs, res := batch(r)
			for i, got := range res {
				want := once[i%len(stmts)]
				if got.ID != jobs[i].ID {
					t.Fatalf("%s r=%d: result %d carries ID %q, want %q", name, r, i, got.ID, jobs[i].ID)
				}
				got.ID = want.ID
				// The bad phi never joins the batch, so the batch is one
				// short of the jobs per copy.
				got.Detail = strings.Replace(got.Detail,
					fmt.Sprintf("batch of %d:", r*(len(stmts)-1)), fmt.Sprintf("batch of %d:", len(stmts)-1), 1)
				sameResult(t, fmt.Sprintf("%s r=%d %s", name, r, jobs[i].ID), got, want)
			}
		}
	}
}

// TestDetachedSlotDetachesEveryDuplicate: when the batch deadline detaches
// a member, it finishes solo and every twin of it gets that result under
// its own ID — here a deadline failure, never a zero Result.
func TestDetachedSlotDetachesEveryDuplicate(t *testing.T) {
	spec := gridSpec(400, 5)
	var jobs []Job
	for c := 0; c < 3; c++ {
		for s, q := range duplicateStatements(100)[:11] {
			jobs = append(jobs, Job{ID: fmt.Sprintf("s%d-c%d", s, c), Spec: spec, Query: q})
		}
	}
	res := New(Options{Workers: 2}).Submit(context.Background(), jobs, WithFusion(), WithDeadline(time.Nanosecond))
	for i, r := range res {
		if r.ID != jobs[i].ID || !strings.Contains(r.Error, "deadline") {
			t.Errorf("job %s: result (ID %q, error %q), want its own deadline failure", jobs[i].ID, r.ID, r.Error)
		}
	}
}
