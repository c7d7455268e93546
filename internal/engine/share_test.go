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

// These are the identity suites for what jobs share: the byz audit of robust
// jobs on one deployment and run seed (Session.audit, across Submits) and
// the execution of twins (equal jobs of one Submit). Sharing is host-side
// only, so the oracle is always the same jobs run without a partner to
// share with: alone, on a fresh Session. Run with -race.

// sameResult asserts two results are equal in every field but WallNS.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.WallNS, want.WallNS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", label, got, want)
	}
}

// auditEntryOf returns the table entry job's audit is pinned on, or nil.
func (s *Session) auditEntryOf(job Job) *auditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.audits[auditKey{job.Spec.Normalize(), job.runSeed(), job.Query.WithDefaults().SketchP}]
}

// TestSharedAuditMatchesSoloSubmits: R robust jobs of mixed kinds and a
// twin of the first submitted together — three audit keys, interleaved, so
// three audits and cross-checks are shared — report exactly what each
// reports submitted alone on a fresh Session, where it audits for itself.
// The jobs on seed 3 mix two sketch precisions (the default both implicit
// and explicit), which must not share a cross-check. Submitted again on the
// same engine, every job replays the first Submit's records and still
// reports the same. Under drop/dup every job audits alone, so together ≡
// alone still holds.
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
		// A twin of job 0 is answered by job 0's execution.
		twin := jobs[0]
		twin.ID += "-twin"
		jobs = append(jobs, twin)
		for _, workers := range []int{1, 4} {
			e := New(Options{Workers: workers})
			together := e.Submit(context.Background(), jobs)
			// Three keys — seed 4, and seed 3 at each precision — or none
			// under drop/dup.
			s := e.Session()
			entry := func(i int) *auditEntry { return s.auditEntryOf(jobs[i]) }
			if n, want := s.AuditEntries(), 3; plan.MessageLevel() && n != 0 || !plan.MessageLevel() && n != want {
				t.Fatalf("%s: the table holds %d audits after the Submit", mode, n)
			}
			if !plan.MessageLevel() && (entry(0) != entry(4) || entry(2) != entry(6) ||
				entry(0) == entry(1) || entry(0) == entry(2) || entry(1) == entry(2)) {
				t.Fatalf("%s: the table does not group the jobs by deployment, run seed and sketch precision", mode)
			}
			again := e.Submit(context.Background(), jobs)
			quarantined := 0
			for i, job := range jobs {
				alone := New(Options{Workers: workers}).Submit(context.Background(), []Job{job})[0]
				// Lost counts can leave a rank out of reach under drop/dup;
				// the failure must then be the same together and alone.
				if alone.Failed() && !plan.MessageLevel() {
					t.Fatalf("%s %s: %s", mode, job.ID, alone.Error)
				}
				quarantined += alone.Quarantined
				sameResult(t, fmt.Sprintf("%s workers=%d %s", mode, workers, job.ID), together[i], alone)
				sameResult(t, fmt.Sprintf("%s workers=%d %s, replayed", mode, workers, job.ID), again[i], alone)
			}
			if quarantined == 0 {
				t.Fatalf("%s: no audit quarantined anything", mode)
			}
		}
	}
}

// TestAuditSharingIsForPartneredRobustJobs pins who shares an audit: robust
// jobs under an adversarial plan on the same deployment, run seed and
// sketch precision, whatever their overlays — nobody else. Honest plans,
// non-robust jobs and drop/dup plans pin no entry.
func TestAuditSharingIsForPartneredRobustJobs(t *testing.T) {
	spec := gridSpec(256, 3)
	spec.Faults = faults.Spec{Byz: 0.05}
	honest := gridSpec(256, 3)
	lossy := gridSpec(256, 3)
	lossy.Faults = faults.Spec{Byz: 0.05, Drop: 0.05}
	ov := &Overlay{}
	robust := Query{Kind: KindMedian, Robust: true}
	jobs := []Job{
		{Spec: spec, Query: robust},                                            // 0: partner of 1 and 6
		{Spec: spec, Query: Query{Kind: KindCount, Robust: true}},              // 1
		{Spec: spec, Query: Query{Kind: KindMedian}},                           // 2: not robust
		{Spec: honest, Query: robust},                                          // 3: no adversary
		{Spec: honest, Query: robust},                                          // 4
		{Spec: spec, Query: robust, RunSeed: 9},                                // 5: alone on its run seed
		{Spec: spec, Query: robust, Overlay: ov},                               // 6: another overlay, the same audit
		{Spec: spec, Query: Query{Kind: KindMedian, Robust: true, SketchP: 8}}, // 7: alone on its precision
		{Spec: lossy, Query: robust},                                           // 8: drop/dup
	}
	s := NewSession()
	unpin := s.pinAudits(jobs)
	a := s.auditEntryOf(jobs[0])
	if a == nil || a != s.auditEntryOf(jobs[1]) || a != s.auditEntryOf(jobs[6]) {
		t.Fatal("the robust jobs of one deployment and run seed do not share an audit")
	}
	if a.refs != 1 {
		t.Errorf("the shared audit has %d pins; want the Submit's one", a.refs)
	}
	for _, i := range []int{5, 7} {
		if b := s.auditEntryOf(jobs[i]); b == nil || b == a || b.refs != 1 {
			t.Errorf("job %d does not audit alone on its own key", i)
		}
	}
	for _, i := range []int{3, 4, 8} {
		if s.auditEntryOf(jobs[i]) != nil {
			t.Errorf("job %d pinned an audit; it has nobody to share with", i)
		}
	}
	if n := s.AuditEntries(); n != 3 {
		t.Errorf("the table holds %d audits; want 3", n)
	}

	unpin()

	// The plain median on job 0's key, the honest plans and drop/dup pin
	// nothing on their own.
	none := NewSession()
	for _, i := range []int{2, 3, 8} {
		none.pinAudits(jobs[i : i+1])()
	}
	if n := none.AuditEntries(); n != 0 {
		t.Errorf("Submits without adversarial robust jobs entered %d audits", n)
	}
}

// TestAuditTableIsBounded: Submits over 1,000 distinct run seeds leave the
// table holding only the last Submit's audits, and a Submit without robust
// jobs leaves it as it was.
func TestAuditTableIsBounded(t *testing.T) {
	spec := gridSpec(64, 3)
	spec.Faults = faults.Spec{Byz: 0.1}
	e := New(Options{Workers: 2})
	for seed := uint64(1); seed <= 1000; seed++ {
		jobs := []Job{
			{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}, RunSeed: seed},
			{Spec: spec, Query: Query{Kind: KindCount, Robust: true}, RunSeed: seed},
			{Spec: spec, Query: Query{Kind: KindMax, Robust: true, SketchP: 6}, RunSeed: seed},
		}
		for _, r := range e.Submit(context.Background(), jobs) {
			if r.Failed() {
				t.Fatalf("seed %d: %s", seed, r.Error)
			}
		}
		if n := e.Session().AuditEntries(); n != 2 {
			t.Fatalf("after the Submit on run seed %d the table holds %d audits; want 2", seed, n)
		}
	}
	e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})
	if n := e.Session().AuditEntries(); n != 2 {
		t.Fatalf("a Submit without robust jobs left %d audits; want the 2 it did not touch", n)
	}
}

// robustForks returns n forks of one adversarial deployment from s, each in
// the state a robust job is in when it reaches the audit, with their views.
func robustForks(t *testing.T, s *Session, spec Spec, n int) ([]*netsim.Network, []*spantree.TreeView) {
	t.Helper()
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

// pinnedForks returns a session with spec's audit pinned and n forks of spec
// from it (see robustForks), and the unpin.
func pinnedForks(t *testing.T, fs faults.Spec, n int) (*Session, Spec, []*netsim.Network, []*spantree.TreeView, func()) {
	t.Helper()
	spec := gridSpec(256, 3)
	spec.Faults = fs
	spec = spec.Normalize()
	s := NewSession()
	unpin := s.pinAudits([]Job{{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}}})
	nws, views := robustForks(t, s, spec, n)
	return s, spec, nws, views, unpin
}

// TestSharedAuditFailureReachesFollowers: when the first job on a key fails
// its record — by error or by panic — every follower fails with that error,
// and the next Submit to pin the key gets a fresh entry, so none replays a
// failure. None is handed a zero outcome, none has its meter touched, and
// the panic still unwinds the first caller (whose fork must not go back to
// the pool).
func TestSharedAuditFailureReachesFollowers(t *testing.T) {
	const n = 4
	// notCached asserts the next pin of spec's key replaces the failed entry.
	notCached := func(t *testing.T, s *Session, spec Spec) {
		t.Helper()
		job := Job{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}}
		failed := s.auditEntryOf(job)
		s.pinAudits([]Job{job})()
		if a := s.auditEntryOf(job); failed == nil || a == failed || a == nil || a.err != nil {
			t.Error("the next Submit on the key would replay the failed record")
		}
	}
	run := func(t *testing.T, s *Session, spec Spec, nws []*netsim.Network, views []*spantree.TreeView) (errs []error, panics int) {
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
				rep, rnet, err := s.audit(nws[i], spec, views[i], core.DefaultSketchP)
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
		s, spec, nws, views, unpin := pinnedForks(t, faults.Spec{Byz: 0.2, MidAt: 1, MidKillRoot: true}, n)
		defer unpin()
		for _, nw := range nws {
			nw.Faults.Tick()
		}
		before := nws[0].Meter.TotalBits()
		errs, panics := run(t, s, spec, nws, views)
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
		notCached(t, s, spec)
	})

	t.Run("panic", func(t *testing.T) {
		s, spec, nws, _, unpin := pinnedForks(t, faults.Spec{Byz: 0.2}, n)
		defer unpin()
		errs, panics := run(t, s, spec, nws, make([]*spantree.TreeView, n)) // a nil view panics the audit
		if panics != 1 || len(errs) != n-1 {
			t.Fatalf("%d errors, %d panics; want the first caller to panic and %d followers to fail", len(errs), panics, n-1)
		}
		for _, err := range errs {
			if !strings.HasPrefix(err.Error(), "engine: query panicked:") {
				t.Errorf("follower error %q does not report the first caller's panic", err)
			}
		}
		notCached(t, s, spec)
	})
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
	res := New(Options{Workers: 2, Timeout: time.Nanosecond}).Submit(context.Background(), jobs, WithFusion())
	for i, r := range res {
		if r.ID != jobs[i].ID || !strings.Contains(r.Error, "deadline") {
			t.Errorf("job %s: result (ID %q, error %q), want its own deadline failure", jobs[i].ID, r.ID, r.Error)
		}
	}
}
