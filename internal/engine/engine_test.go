package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func gridSpec(n int, seed uint64) Spec {
	return Spec{Topology: "grid", N: n, Workload: string(workload.Zipf), Seed: seed}
}

// serialReference runs the job the way a serial caller would: construct the
// network directly with netsim.New (no session, no fork) and execute.
func serialReference(t *testing.T, job Job) Result {
	t.Helper()
	spec := job.Spec.Normalize()
	g, err := topology.Build(spec.Topology, spec.N, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	values := workload.Generate(workload.Kind(spec.Workload), g.N(), spec.MaxX, spec.Seed)
	nw := netsim.New(g, values, spec.MaxX,
		netsim.WithSeed(spec.Seed), netsim.WithMaxChildren(spec.MaxChildren))
	res, err := executeSerial(nw, spec, job.Query)
	if err != nil {
		t.Fatalf("serial %s on %s: %v", job.Query, spec, err)
	}
	return res
}

// executeSerial runs one query serially against an existing per-run
// network: the engine's execution path without the pool or the fork. Like
// Session.Instantiate, it attaches an active fault plan the network lacks,
// forked from the network's seed.
func executeSerial(nw *netsim.Network, spec Spec, q Query) (Result, error) {
	spec = spec.Normalize()
	if spec.Faults.Active() && nw.Faults == nil {
		if err := spec.Faults.Validate(); err != nil {
			return Result{}, err
		}
		nw.Faults = faults.New(spec.Faults, nw.N(), nw.Root(), nw.Seed())
	}
	return New(Options{Workers: 1}).runAlone(nw, Job{Spec: spec, Query: q}, 1)
}

// runAlone runs job as a unit of one on nw, a network the caller owns and
// releases, on a tree-kernel team of the given size: the unit runner
// between its fork and its release, metered from here.
func (e *Engine) runAlone(nw *netsim.Network, job Job, team int) (Result, error) {
	r := run{nw: nw, spec: job.Spec.Normalize(), q: job.Query.WithDefaults(), before: nw.Meter.Snapshot(), start: time.Now()}
	if err := e.prepare(&r, team); err != nil {
		return Result{}, err
	}
	var res [1]Result
	e.answer(context.Background(), &r, []Job{job}, plan{team: team}, []int{0}, res[:])
	if res[0].Failed() {
		return Result{}, errors.New(res[0].Error)
	}
	return res[0], nil
}

// TestParallelMatchesSerial is the engine's concurrent-correctness
// contract: N parallel queries on distinct seeds each match their
// serial-execution answer and bits/node cost exactly. Determinism must
// survive concurrency.
func TestParallelMatchesSerial(t *testing.T) {
	kinds := []Query{
		{Kind: KindMedian},
		{Kind: KindQuantile, Phi: 0.9},
		{Kind: KindCount},
		{Kind: KindSum},
		{Kind: KindDistinct},
		{Kind: KindApxDistinct},
		{Kind: KindApxMedian},
		{Kind: KindGK},
		{Kind: KindQDigest},
	}
	var jobs []Job
	for _, q := range kinds {
		for seed := uint64(1); seed <= 4; seed++ {
			jobs = append(jobs, Job{Spec: gridSpec(256, seed), Query: q})
		}
	}

	e := New(Options{Workers: 8})
	results := e.Submit(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, got := range results {
		if got.Failed() {
			t.Fatalf("job %d (%s seed %d) failed: %s", i, jobs[i].Query, jobs[i].Spec.Seed, got.Error)
		}
		want := serialReference(t, jobs[i])
		if got.Value != want.Value {
			t.Errorf("job %d (%s seed %d): value %g != serial %g",
				i, jobs[i].Query, jobs[i].Spec.Seed, got.Value, want.Value)
		}
		if got.BitsPerNode != want.BitsPerNode || got.TotalBits != want.TotalBits || got.Messages != want.Messages {
			t.Errorf("job %d (%s seed %d): meter (%d,%d,%d) != serial (%d,%d,%d)",
				i, jobs[i].Query, jobs[i].Spec.Seed,
				got.BitsPerNode, got.TotalBits, got.Messages,
				want.BitsPerNode, want.TotalBits, want.Messages)
		}
		if got.Truth != want.Truth || got.Exact != want.Exact {
			t.Errorf("job %d: truth/exact (%g,%v) != serial (%g,%v)",
				i, got.Truth, got.Exact, want.Truth, want.Exact)
		}
	}
}

// TestConcurrentSameSpec hammers one cached template from many goroutines:
// every run of the same (spec, seed, query) must produce the identical
// result, and the template must stay pristine. Run with -race.
func TestConcurrentSameSpec(t *testing.T) {
	spec := gridSpec(144, 7)
	job := Job{Spec: spec, Query: Query{Kind: KindMedian}}
	e := New(Options{Workers: 8})

	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = job
	}
	results := e.Submit(context.Background(), jobs)
	for i, r := range results {
		if r.Failed() {
			t.Fatalf("run %d failed: %s", i, r.Error)
		}
		if r.Value != results[0].Value || r.BitsPerNode != results[0].BitsPerNode {
			t.Errorf("run %d diverged: value %g bits %d vs run 0 value %g bits %d",
				i, r.Value, r.BitsPerNode, results[0].Value, results[0].BitsPerNode)
		}
	}

	tmpl, err := e.Session().Template(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := tmpl.Meter.TotalBits(); got != 0 {
		t.Errorf("template meter charged %d bits; runs leaked into the template", got)
	}
	for _, nd := range tmpl.Nodes {
		for _, it := range nd.Items {
			if !it.Active || it.Cur != it.Orig {
				t.Fatalf("template node %d items mutated by a run", nd.ID)
			}
		}
	}
}

// TestSessionCache verifies template reuse and tree sharing across
// differently-seeded deployments of the same shape.
func TestSessionCache(t *testing.T) {
	s := NewSession()
	a, err := s.Template(gridSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Template(gridSpec(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same spec built two templates")
	}
	hits, misses := s.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// A different seed is a different workload (new template) but the same
	// grid: the immutable tree must be shared, not rebuilt.
	c, err := s.Template(gridSpec(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different seeds must not share a template")
	}
	if c.Tree != a.Tree {
		t.Error("same-shape deployments should share the cached spanning tree")
	}

	// Forks are independent networks over the shared tree.
	f1, err := s.Instantiate(gridSpec(100, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Instantiate(gridSpec(100, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 || f1.Meter == f2.Meter {
		t.Error("instantiate must fork fresh networks and meters")
	}
	if f1.Tree != f2.Tree {
		t.Error("forks should share the immutable tree")
	}
}

// TestDeadline: a query whose Submit context is past its deadline is
// reported failed with the context's error, and the same job under a
// deadline it can meet succeeds.
func TestDeadline(t *testing.T) {
	e := New(Options{Workers: 2})
	job := []Job{{Spec: gridSpec(1024, 1), Query: Query{Kind: KindMedian}}}
	past, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if r := e.Submit(past, job)[0]; r.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("past deadline: %+v, want the deadline error", r)
	}
	ahead, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if r := e.Submit(ahead, job)[0]; r.Failed() {
		t.Fatalf("unexpected failure: %s", r.Error)
	}
}

// TestRunCancel: cancelling the batch context fails remaining jobs rather
// than hanging the pool.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 2})
	jobs := []Job{
		{Spec: gridSpec(64, 1), Query: Query{Kind: KindCount}},
		{Spec: gridSpec(64, 2), Query: Query{Kind: KindCount}},
	}
	for i, r := range e.Submit(ctx, jobs) {
		if !r.Failed() {
			t.Errorf("job %d: expected context-cancelled failure", i)
		}
	}
}

// TestBadJobsAreIsolated: an invalid spec or query fails its own result
// without poisoning the batch.
func TestBadJobsAreIsolated(t *testing.T) {
	e := New(Options{Workers: 4})
	jobs := []Job{
		{Spec: gridSpec(64, 1), Query: Query{Kind: KindCount}},
		{Spec: Spec{Topology: "moebius", N: 64}, Query: Query{Kind: KindCount}},
		{Spec: gridSpec(64, 1), Query: Query{Kind: "nope"}},
		{Spec: gridSpec(64, 1), Query: Query{Kind: KindSingleHop}}, // needs complete topology
		{Spec: gridSpec(64, 2), Query: Query{Kind: KindSum}},
	}
	results := e.Submit(context.Background(), jobs)
	for _, i := range []int{0, 4} {
		if results[i].Failed() {
			t.Errorf("job %d should succeed, got: %s", i, results[i].Error)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if !results[i].Failed() {
			t.Errorf("job %d should fail", i)
		}
	}
}

// TestFailedTemplateIsNotPoisoned: a spec whose build fails must keep
// failing with the real error on every request — the once-guarded cache
// entry must cache the error, not a nil template that later nil-derefs.
func TestFailedTemplateIsNotPoisoned(t *testing.T) {
	e := New(Options{Workers: 2})
	bad := Spec{Topology: "grid", N: 64, Workload: "bogus", Seed: 1}
	for i := 0; i < 2; i++ {
		r := e.Submit(context.Background(), []Job{{Spec: bad, Query: Query{Kind: KindCount}}})[0]
		if !r.Failed() {
			t.Fatalf("attempt %d: expected failure", i)
		}
		if !strings.Contains(r.Error, "unknown workload") {
			t.Fatalf("attempt %d: error lost its cause: %s", i, r.Error)
		}
	}
}

// TestStatementKind routes sensorql WHERE statements through the engine:
// an in-network count and a filtered median both answer exactly over the
// matching items, against ground truth that skips the rest.
func TestStatementKind(t *testing.T) {
	e := New(Options{Workers: 2})
	spec := gridSpec(100, 3)
	all := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindCount}}})[0]
	rs := e.Submit(context.Background(), []Job{
		{Spec: spec, Query: Query{Kind: KindCount, Where: lessThan(200)}},
		{Spec: spec, Query: Query{Kind: KindMedian, Where: lessThan(200)}},
	})
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("%s failed: %s", r.Query, r.Error)
		}
		if !r.TruthKnown || !r.Exact {
			t.Errorf("%s = %g, truth %g (known %v)", r.Query, r.Value, r.Truth, r.TruthKnown)
		}
	}
	if n := rs[0].Value; n == 0 || n >= all.Value {
		t.Errorf("count where value < 200 = %g of %g: the predicate selected nothing or everything", n, all.Value)
	}
	if rs[1].Value >= 200 {
		t.Errorf("filtered median %g is not below 200", rs[1].Value)
	}
}

// TestReportJSON: the collector aggregates bits/node per kind and the
// report survives a JSON round trip.
func TestReportJSON(t *testing.T) {
	e := New(Options{Workers: 4})
	var jobs []Job
	for seed := uint64(1); seed <= 3; seed++ {
		jobs = append(jobs, Job{Spec: gridSpec(100, seed), Query: Query{Kind: KindMedian}})
		jobs = append(jobs, Job{Spec: gridSpec(100, seed), Query: Query{Kind: KindCount}})
	}
	start := time.Now()
	rep := Collect(e, e.Submit(context.Background(), jobs), time.Since(start))
	if rep.Jobs != 6 || rep.Failed != 0 {
		t.Fatalf("report jobs/failed = %d/%d, want 6/0", rep.Jobs, rep.Failed)
	}
	if len(rep.Summary) != 2 {
		t.Fatalf("summary has %d kinds, want 2", len(rep.Summary))
	}
	for _, s := range rep.Summary {
		if s.Runs != 3 || s.MeanBitsPerNode <= 0 {
			t.Errorf("summary %s: runs=%d mean bits/node=%g", s.Kind, s.Runs, s.MeanBitsPerNode)
		}
		if s.Kind == KindMedian && s.ExactRuns != 3 {
			t.Errorf("median exact runs = %d, want 3", s.ExactRuns)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Jobs != rep.Jobs || len(back.Results) != len(rep.Results) {
		t.Error("report did not survive JSON round trip")
	}
}

// TestWhereFitsTheDomain: a WHERE bound past the domain is no bound at all,
// so the thresholds the network is sent always fit its value width; an
// empty interval matches nothing; a malformed predicate, or one on a kind
// without a WHERE mode, is an error.
func TestWhereFitsTheDomain(t *testing.T) {
	const maxX = 255
	k := kindOf(KindCount)
	for _, tc := range []struct{ in, want wire.Pred }{
		{wire.Less(100), wire.Less(100)},
		{wire.Less(256), wire.True()},
		{wire.GreaterEq(255), wire.GreaterEq(255)},
		{wire.GreaterEq(1 << 40), wire.Less(0)},
		{wire.InRange(3, 12), wire.InRange(3, 12)},
		{wire.InRange(3, 1<<40), wire.GreaterEq(3)},
		{wire.InRange(0, 1<<40), wire.GreaterEq(0)},
		{wire.InRange(300, 1<<40), wire.Less(0)},
		{wire.InRange(12, 3), wire.Less(0)},
		{wire.True(), wire.True()},
	} {
		got, err := k.whereFor(Query{Kind: KindCount, Where: &tc.in}, maxX)
		if err != nil || got != tc.want {
			t.Errorf("%v over [0, %d]: %v (%v), want %v", tc.in, maxX, got, err, tc.want)
		}
	}
	if _, err := k.whereFor(Query{Kind: KindCount, Where: &wire.Pred{}}, maxX); err == nil {
		t.Error("a predicate of kind 0 was accepted")
	}
	for _, kind := range []string{KindFused, KindGossip, KindQDigest} {
		r := New(Options{}).Submit(context.Background(), []Job{{Spec: gridSpec(64, 1), Query: Query{Kind: kind, Where: lessThan(100)}}})[0]
		if want := "engine: " + kind + " does not support WHERE"; r.Error != want {
			t.Errorf("%s with WHERE: error %q, want %q", kind, r.Error, want)
		}
	}
	r := New(Options{}).Submit(context.Background(), []Job{{Spec: gridSpec(64, 1), Query: Query{Kind: KindCount, Where: lessThan(1 << 40)}}})[0]
	if r.Failed() || r.Value != 64 || !r.Exact {
		t.Errorf("count where value < 2^40 = %g (%s), want all 64", r.Value, r.Error)
	}
}
