package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// allKindQueries enumerates one runnable query per engine kind, with the
// spec each needs (singlehop requires the complete topology), and the
// statementCase `SELECT median(value) WHERE value < 200`. Each job's ID
// labels it.
func allKindQueries(n int, seed uint64) []Job {
	var jobs []Job
	for _, kind := range append(Kinds(), statementCase) {
		spec := gridSpec(n, seed)
		q := Query{Kind: kind}
		switch kind {
		case KindSingleHop:
			spec = Spec{Topology: "complete", N: 64, Workload: string(workload.Uniform), Seed: seed}
		case KindQuantile:
			q.Phi = 0.9
		case KindQuantiles:
			q.Phis = []float64{0.1, 0.5, 0.99}
		case statementCase:
			q = Query{Kind: KindMedian, Where: lessThan(200)}
		}
		jobs = append(jobs, Job{ID: kind, Spec: spec, Query: q})
	}
	return jobs
}

// TestZeroFaultPlanIsByteIdentical is the subsystem's safety property:
// a zero-fault plan — whether absent, zero-valued on the spec, or an
// instantiated-but-inactive plan attached to the network — produces
// byte-identical answers AND meter readings across every query kind.
func TestZeroFaultPlanIsByteIdentical(t *testing.T) {
	for _, job := range allKindQueries(144, 5) {
		job := job
		t.Run(job.ID, func(t *testing.T) {
			ref := serialReference(t, job)

			// Spec-level zero plan (only the fault seed set — still inactive).
			withSpec := job
			withSpec.Spec.Faults = faults.Spec{Seed: 1234}
			got := serialReference(t, withSpec)
			compareResults(t, "spec-level zero plan", got, ref)

			// Instantiated inactive plan attached straight to the network.
			spec := job.Spec.Normalize()
			g, err := topology.Build(spec.Topology, spec.N, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			values := workload.Generate(workload.Kind(spec.Workload), g.N(), spec.MaxX, spec.Seed)
			nw := netsim.New(g, values, spec.MaxX,
				netsim.WithSeed(spec.Seed), netsim.WithMaxChildren(spec.MaxChildren))
			nw.Faults = faults.New(faults.Spec{Seed: 1234}, nw.N(), nw.Root(), spec.Seed)
			attached, err := executeSerial(nw, spec, job.Query)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, "attached inactive plan", attached, ref)
		})
	}
}

// TestFaultPlanRejections freezes every kind's fault-plan verdict: under
// crashes, dead links and a phased plan (plain, and on the robust tier),
// each kind answers or fails with today's literal explanation, and
// buildtree refuses every plan, message and adversarial ones included. A
// WHERE statement heals like its kind but refuses a phased plan.
func TestFaultPlanRejections(t *testing.T) {
	const (
		structural   = "engine: %s does not support structural faults (crash/linkfail) — only tree queries self-heal; message faults (drop/dup) are fine"
		phased       = "engine: %s does not support phased (mid-sweep) fault plans — only the exact selection/aggregate tree kinds retry, and the gossip kinds degrade natively"
		noPlans      = "engine: buildtree does not support fault plans (the construction protocol assumes the full node set)"
		robustPhased = "engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)"
		wherePhased  = "engine: WHERE does not support phased (mid-sweep) fault plans — the mid-sweep retry loop does not carry a predicate"
		whereRobust  = "engine: WHERE does not support robust mode (the byz tier's trimmed plane has no filter)"
	)
	graph := []string{KindGossip, KindGossipDistinct, KindSingleHop}
	retries := robustKinds
	native := []string{KindGossip, KindGossipDistinct}
	mid := faults.Spec{MidAt: 2, MidCrash: 0.03}
	plans := []struct {
		name   string
		fs     faults.Spec
		robust bool
	}{
		{"crash", faults.Spec{Crash: 0.05}, false},
		{"linkfail", faults.Spec{LinkFail: 0.05}, false},
		{"phased", mid, false},
		{"phased-robust", mid, true},
		{"drop", faults.Spec{Drop: 0.02}, false},
		{"dup", faults.Spec{Dup: 0.02}, false},
		{"byz", faults.Spec{Byz: 0.05}, false},
	}
	e := New(Options{Workers: 2})
	for _, job := range allKindQueries(64, 3) {
		kind := job.Query.Kind
		for _, pl := range plans {
			var want string
			switch {
			case kind == KindBuildTree:
				want = noPlans
			case !pl.fs.Active() || pl.fs.MessageLevel() || pl.fs.Adversarial():
				continue // only buildtree refuses these
			case job.ID == statementCase && pl.robust:
				want = whereRobust
			case job.ID == statementCase && pl.fs.Phased():
				want = wherePhased
			case pl.fs.Structural() && slices.Contains(graph, kind):
				want = fmt.Sprintf(structural, kind)
			case pl.fs.Phased() && !slices.Contains(retries, kind) && !slices.Contains(native, kind):
				want = fmt.Sprintf(phased, kind)
			case pl.fs.Phased() && pl.robust:
				want = robustPhased
			}
			t.Run(job.ID+"/"+pl.name, func(t *testing.T) {
				job := job
				job.Spec.Faults, job.Spec.Retry, job.Query.Robust = pl.fs, Retry{Budget: 1}, pl.robust
				if res := e.Submit(context.Background(), []Job{job})[0]; res.Error != want {
					t.Fatalf("error %q, want %q", res.Error, want)
				}
			})
		}
	}
}

func compareResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Value != want.Value || got.Detail != want.Detail {
		t.Errorf("%s: answer (%g, %q) != reference (%g, %q)",
			label, got.Value, got.Detail, want.Value, want.Detail)
	}
	if got.BitsPerNode != want.BitsPerNode || got.TotalBits != want.TotalBits || got.Messages != want.Messages {
		t.Errorf("%s: meter (%d,%d,%d) != reference (%d,%d,%d)",
			label, got.BitsPerNode, got.TotalBits, got.Messages,
			want.BitsPerNode, want.TotalBits, want.Messages)
	}
	if got.RepairBits != 0 || got.Crashed != 0 || got.Unreachable != 0 {
		t.Errorf("%s: zero-fault run reported fault impact (%d crashed, %d unreachable, %d repair bits)",
			label, got.Crashed, got.Unreachable, got.RepairBits)
	}
}

// faultySpec is the grid deployment the faulty determinism tests sweep.
func faultySpec(n int, seed uint64, fs faults.Spec) Spec {
	s := gridSpec(n, seed)
	s.Faults = fs
	return s
}

// TestParallelMatchesSerialFaulty extends the engine's concurrency
// contract to faulty runs: distinct per-run fault plans, forked from each
// run's seed, must leave every parallel result — answer, meters, and
// fault impact — bit-identical to serial execution. Run with -race.
func TestParallelMatchesSerialFaulty(t *testing.T) {
	kinds := []Query{
		{Kind: KindMedian},
		{Kind: KindCount},
		{Kind: KindMax},
		{Kind: KindDistinct},
		{Kind: KindApxDistinct},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.9}},
		{Kind: KindFused},
	}
	fs := faults.Spec{Crash: 0.04, Drop: 0.02, Dup: 0.02}
	var jobs []Job
	for _, q := range kinds {
		for seed := uint64(1); seed <= 4; seed++ {
			jobs = append(jobs, Job{Spec: faultySpec(256, seed, fs), Query: q})
		}
	}

	e := New(Options{Workers: 8})
	results := e.Submit(context.Background(), jobs)
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
		if got.Crashed != want.Crashed || got.Unreachable != want.Unreachable || got.RepairBits != want.RepairBits {
			t.Errorf("job %d (%s seed %d): fault impact (%d,%d,%d) != serial (%d,%d,%d)",
				i, jobs[i].Query, jobs[i].Spec.Seed,
				got.Crashed, got.Unreachable, got.RepairBits,
				want.Crashed, want.Unreachable, want.RepairBits)
		}
		if got.Crashed == 0 {
			t.Errorf("job %d (seed %d): crash plan crashed nobody — fault threading broken?",
				i, jobs[i].Spec.Seed)
		}
	}
}

// TestCrashHealingAcceptance is the subsystem's acceptance scenario: under
// crash rates up to 5% on a 24×24 grid, the self-healing tree reconnects
// every survivor, and MEDIAN and COUNT complete exactly over the surviving
// population with their repair cost reported.
func TestCrashHealingAcceptance(t *testing.T) {
	const n = 576 // 24×24
	e := New(Options{Workers: 4})
	for _, rate := range []float64{0.02, 0.05} {
		for seed := uint64(1); seed <= 5; seed++ {
			spec := Spec{Topology: "grid", N: n, Workload: string(workload.Uniform),
				Seed: seed, Faults: faults.Spec{Crash: rate}}

			med := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindMedian}}})[0]
			if med.Failed() {
				t.Fatalf("rate %.2f seed %d: median failed: %s", rate, seed, med.Error)
			}
			if med.Crashed == 0 {
				t.Errorf("rate %.2f seed %d: no node crashed", rate, seed)
			}
			if med.Unreachable != 0 {
				t.Errorf("rate %.2f seed %d: %d survivors unreachable", rate, seed, med.Unreachable)
			}
			if !med.Exact {
				t.Errorf("rate %.2f seed %d: median %g != survivor truth %g", rate, seed, med.Value, med.Truth)
			}
			if med.RepairBits <= 0 {
				t.Errorf("rate %.2f seed %d: no repair cost reported", rate, seed)
			}

			cnt := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindCount}}})[0]
			if cnt.Failed() {
				t.Fatalf("rate %.2f seed %d: count failed: %s", rate, seed, cnt.Error)
			}
			if !cnt.Exact {
				t.Errorf("rate %.2f seed %d: count inexact", rate, seed)
			}
			if want := float64(n - cnt.Crashed - cnt.Unreachable); cnt.Value != want {
				t.Errorf("rate %.2f seed %d: count %g, want %g survivors", rate, seed, cnt.Value, want)
			}
		}
	}
}

// TestSketchesUnderDuplication: the §2.2 robustness claim through the full
// engine stack — MAX and exact-distinct (idempotent merges) stay exact
// under heavy duplication, the approximate sketch returns the identical
// estimate, while COUNT inflates. Under loss the APX COUNT kinds lose the
// dropped subtrees and pay for every duplicate, exactly as per-edge
// sketch convergecasts do.
func TestSketchesUnderDuplication(t *testing.T) {
	e := New(Options{Workers: 4})
	base := gridSpec(256, 3)
	run := func(fs faults.Spec, kind string) Result {
		t.Helper()
		spec := base
		spec.Faults = fs
		r := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: kind}}})[0]
		if r.Failed() {
			t.Fatalf("%s under %v failed: %s", kind, fs, r.Error)
		}
		return r
	}

	cleanSketch := run(faults.Spec{}, KindApxDistinct)
	for _, dup := range []float64{0.1, 0.3} {
		fs := faults.Spec{Dup: dup}
		if r := run(fs, KindMax); !r.Exact {
			t.Errorf("dup %.1f: MAX %g != truth %g", dup, r.Value, r.Truth)
		}
		if r := run(fs, KindDistinct); !r.Exact {
			t.Errorf("dup %.1f: DISTINCT %g != truth %g", dup, r.Value, r.Truth)
		}
		if r := run(fs, KindApxDistinct); r.Value != cleanSketch.Value {
			t.Errorf("dup %.1f: sketch estimate %g moved from clean %g", dup, r.Value, cleanSketch.Value)
		}
		if r := run(fs, KindCount); r.Value <= r.Truth {
			t.Errorf("dup %.1f: COUNT %g did not inflate past %g", dup, r.Value, r.Truth)
		}
	}

	lossy := base
	lossy.Faults = faults.Spec{Drop: 0.3, Dup: 0.3}
	for _, kind := range []string{KindApxCount, KindApxMedian} {
		requireHonestSketchRun(t, lossy, Query{Kind: kind})
	}
	// On 1,024 nodes at drop 0.3 the fast fold once answered 1,020.5 at
	// 7,342,071 bits, as if every message arrived.
	big := gridSpec(1024, 3)
	big.Faults = faults.Spec{Drop: 0.3}
	r, _ := requireHonestSketchRun(t, big, Query{Kind: KindApxCount})
	if got := fmt.Sprintf("%.1f at %d bits", r.Value, r.TotalBits); got != "11.1 at 5191671 bits" {
		t.Errorf("apxcount under drop 0.3 on 1,024 nodes: %s, want 11.1 at 5191671 bits", got)
	}
}

// TestFaultSweepSharesTemplate: deployments differing only in fault rates
// must share one cached template — a sweep builds its topology once.
func TestFaultSweepSharesTemplate(t *testing.T) {
	s := NewSession()
	specA := faultySpec(100, 1, faults.Spec{})
	specB := faultySpec(100, 1, faults.Spec{Crash: 0.05})
	a, err := s.Instantiate(specA, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Instantiate(specB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1 (shared template)", hits, misses)
	}
	if a.Tree != b.Tree {
		t.Error("fault-rate variants should share the cached tree")
	}
	if a.Faults != nil {
		t.Error("zero-fault instantiation attached a plan")
	}
	if b.Faults == nil || b.Faults.CrashedCount() == 0 {
		t.Error("faulty instantiation did not attach an active plan")
	}
}
