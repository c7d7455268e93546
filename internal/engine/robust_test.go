package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// robustQueries enumerates one runnable query per robust-capable kind.
func robustQueries() []Query {
	return []Query{
		{Kind: KindMedian, Robust: true},
		{Kind: KindOrderStat, K: 10, Robust: true},
		{Kind: KindQuantile, Phi: 0.9, Robust: true},
		{Kind: KindQuantiles, Phis: []float64{0.25, 0.5, 0.9}, Robust: true},
		{Kind: KindCount, Robust: true},
		{Kind: KindSum, Robust: true},
		{Kind: KindMin, Robust: true},
		{Kind: KindMax, Robust: true},
		{Kind: KindAvg, Robust: true},
		{Kind: KindFused, Robust: true},
	}
}

// TestRobustZeroAdversaryValueIdentity: with no adversary in the plan —
// including honest structural plans (crash, linkfail) — a robust run must
// produce exactly the values of its non-robust twin, for every robust
// kind. Run with -race in CI.
func TestRobustZeroAdversaryValueIdentity(t *testing.T) {
	// Message-level plans are absent deliberately: drop/dup fates are
	// drawn per delivery, and the sector-split plane's sweeps are
	// different deliveries than the full-tree sweep, so robust-vs-plain
	// value identity is only promised for reliable-delivery plans.
	// TestRobustZeroAdversaryMessageFaults pins down the weaker contract
	// that does hold under drop/dup.
	plans := map[string]faults.Spec{
		"no-faults":      {},
		"crash":          {Crash: 0.04},
		"linkfail":       {LinkFail: 0.03},
		"crash+linkfail": {Crash: 0.03, LinkFail: 0.02},
	}
	for name, fs := range plans {
		for _, q := range robustQueries() {
			t.Run(name+"/"+q.Kind, func(t *testing.T) {
				spec := gridSpec(196, 7)
				spec.Faults = fs
				robust := serialReference(t, Job{Spec: spec, Query: q})
				plain := q
				plain.Robust = false
				ref := serialReference(t, Job{Spec: spec, Query: plain})
				if robust.Value != ref.Value {
					t.Fatalf("robust value %g != plain %g", robust.Value, ref.Value)
				}
				if len(robust.Values) != len(ref.Values) {
					t.Fatalf("robust %d values, plain %d", len(robust.Values), len(ref.Values))
				}
				for i := range robust.Values {
					if robust.Values[i] != ref.Values[i] {
						t.Fatalf("values[%d]: robust %g plain %g", i, robust.Values[i], ref.Values[i])
					}
				}
				if robust.Truth != ref.Truth {
					t.Fatalf("robust truth %g != plain %g", robust.Truth, ref.Truth)
				}
				if !robust.Robust {
					t.Fatal("robust result not marked Robust")
				}
				if robust.Suspected != 0 || robust.Quarantined != 0 || robust.IntegrityBound != 0 {
					t.Fatalf("honest robust run reported integrity debt: %+v", robust)
				}
				if robust.Crashed != ref.Crashed || robust.Unreachable != ref.Unreachable {
					t.Fatalf("fault impact diverged: robust (%d,%d) plain (%d,%d)",
						robust.Crashed, robust.Unreachable, ref.Crashed, ref.Unreachable)
				}
			})
		}
	}
}

// TestRobustLocalizesAndBounds is the tier's acceptance test: under
// adversarial plans (alone and mixed with crashes and link failures) a
// robust run must quarantine liars, report the audit work, and land the
// answer within the reported integrity bound of the surviving truth.
func TestRobustLocalizesAndBounds(t *testing.T) {
	plans := map[string]faults.Spec{
		"byz":            {Byz: 0.04},
		"byz-equivocate": {Byz: 0.04, ByzMode: faults.ByzEquivocate},
		"byz-collude":    {Byz: 0.04, ByzMode: faults.ByzCollude},
		"byz+crash":      {Byz: 0.03, Crash: 0.03},
		"byz+linkfail":   {Byz: 0.03, LinkFail: 0.03},
	}
	sawQuarantine := false
	for name, fs := range plans {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := gridSpec(256, seed)
			spec.Faults = fs
			res := serialReference(t, Job{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}})
			if !res.Robust {
				t.Fatalf("%s seed %d: result not marked robust", name, seed)
			}
			if res.Quarantined > 0 {
				sawQuarantine = true
				if res.AuditBits <= 0 || res.AuditRounds < 2 {
					t.Fatalf("%s seed %d: quarantined %d but audit rounds %d bits %d",
						name, seed, res.Quarantined, res.AuditRounds, res.AuditBits)
				}
			}
			if !res.TruthKnown {
				t.Fatalf("%s seed %d: truth unknown", name, seed)
			}
			// The answer must sit within IntegrityBound rank positions of
			// the honest truth over the surviving population. With every
			// liar quarantined the bound is 0 and the answer exact.
			if res.IntegrityBound == 0 {
				if !res.Exact {
					t.Fatalf("%s seed %d: bound 0 but value %g != truth %g",
						name, seed, res.Value, res.Truth)
				}
				continue
			}
			if !rankWindowContains(t, spec, res.Value, res.IntegrityBound) {
				t.Fatalf("%s seed %d: value %g outside integrity bound %d of truth %g",
					name, seed, res.Value, res.IntegrityBound, res.Truth)
			}
		}
	}
	if !sawQuarantine {
		t.Fatal("no plan/seed quarantined anyone — adversary too quiet for the test to bite")
	}
}

// rankWindowContains sorts the deployment's honest values and checks v
// against the [k-bound, k+bound] rank window around the median rank of
// the full population — a conservative window check (the surviving
// population is a subset, so its median window sits inside this one
// whenever at most bound items were excluded or displaced).
func rankWindowContains(t *testing.T, spec Spec, v float64, bound uint64) bool {
	t.Helper()
	ns := spec.Normalize()
	g, err := topology.Build(ns.Topology, ns.N, ns.Seed)
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.Generate(workload.Kind(ns.Workload), g.N(), ns.MaxX, ns.Seed)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	n := len(vals)
	k := (n + 1) / 2
	lo := k - 1 - int(bound)
	if lo < 0 {
		lo = 0
	}
	hi := k - 1 + int(bound)
	if hi > n-1 {
		hi = n - 1
	}
	return float64(vals[lo]) <= v && v <= float64(vals[hi])
}

// robustKinds are the kinds the byz tier answers.
var robustKinds = []string{KindMedian, KindOrderStat, KindQuantile, KindQuantiles,
	KindCount, KindSum, KindMin, KindMax, KindAvg, KindFused}

// TestRobustRejections: unsupported combinations fail with an
// explanation, not a protocol panic — every kind off the robust tier with
// the same literal text — and every robust kind answers.
func TestRobustRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		q    Query
		want string
	}{
		{"statement", gridSpec(64, 1), Query{Kind: KindMedian, Where: lessThan(100), Robust: true}, "robust"},
		{"sketch-kind", gridSpec(64, 1), Query{Kind: KindApxDistinct, Robust: true}, "robust"},
		{"gossip-kind", gridSpec(64, 1), Query{Kind: KindGossip, Robust: true}, "robust"},
	}
	e := New(Options{Workers: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := e.Submit(context.Background(), []Job{{Spec: tc.spec, Query: tc.q}})[0]
			if !res.Failed() {
				t.Fatalf("expected failure, got value %g", res.Value)
			}
			if !strings.Contains(res.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", res.Error, tc.want)
			}
		})
	}
	for _, job := range allKindQueries(64, 1) {
		job.Query.Robust = true
		t.Run("all/"+job.ID, func(t *testing.T) {
			want := fmt.Sprintf("engine: %s does not support robust mode (exact aggregate kinds only)", job.Query.Kind)
			switch {
			case job.ID == statementCase:
				want = "engine: WHERE does not support robust mode (the byz tier's trimmed plane has no filter)"
			case slices.Contains(robustKinds, job.Query.Kind):
				want = ""
			}
			if res := e.Submit(context.Background(), []Job{job})[0]; res.Error != want {
				t.Fatalf("error %q, want %q", res.Error, want)
			}
		})
	}
}

// TestRobustParallelMatchesSerial extends the engine's concurrency
// contract to robust adversarial runs: parallel execution must be
// bit-identical to serial — answers, meters, and integrity accounting.
// Run with -race.
func TestRobustParallelMatchesSerial(t *testing.T) {
	var jobs []Job
	for seed := uint64(1); seed <= 4; seed++ {
		spec := gridSpec(196, seed)
		spec.Faults = faults.Spec{Byz: 0.05, Crash: 0.02}
		jobs = append(jobs,
			Job{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}},
			Job{Spec: spec, Query: Query{Kind: KindCount, Robust: true}},
			Job{Spec: spec, Query: Query{Kind: KindFused, Robust: true}},
		)
	}
	e := New(Options{Workers: 6})
	results := e.Submit(context.Background(), jobs)
	for i, got := range results {
		if got.Failed() {
			t.Fatalf("job %d failed: %s", i, got.Error)
		}
		want := serialReference(t, jobs[i])
		if got.Value != want.Value || got.TotalBits != want.TotalBits || got.BitsPerNode != want.BitsPerNode {
			t.Errorf("job %d: (%g,%d,%d) != serial (%g,%d,%d)",
				i, got.Value, got.TotalBits, got.BitsPerNode,
				want.Value, want.TotalBits, want.BitsPerNode)
		}
		if got.Suspected != want.Suspected || got.Quarantined != want.Quarantined ||
			got.IntegrityBound != want.IntegrityBound || got.AuditBits != want.AuditBits {
			t.Errorf("job %d: integrity (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
				i, got.Suspected, got.Quarantined, got.IntegrityBound, got.AuditBits,
				want.Suspected, want.Quarantined, want.IntegrityBound, want.AuditBits)
		}
	}
}

// TestNonRobustUnderAdversary: robust-mode-off queries still execute
// under an adversarial plan — the lies land in the answer (that is the
// point of the demo) but nothing panics and the fault plumbing stays
// deterministic across runs.
func TestNonRobustUnderAdversary(t *testing.T) {
	spec := gridSpec(256, 3)
	spec.Faults = faults.Spec{Byz: 0.05}
	a := serialReference(t, Job{Spec: spec, Query: Query{Kind: KindMedian}})
	b := serialReference(t, Job{Spec: spec, Query: Query{Kind: KindMedian}})
	if a.Value != b.Value || a.TotalBits != b.TotalBits {
		t.Fatalf("adversarial non-robust runs diverged: (%g,%d) vs (%g,%d)",
			a.Value, a.TotalBits, b.Value, b.TotalBits)
	}
	if a.Robust || a.Quarantined != 0 {
		t.Fatalf("non-robust run reported robust fields: %+v", a)
	}
}

// TestRobustZeroAdversaryMessageFaults closes the identity suite for
// message-level plans (drop, dup — alone and mixed). Full value identity
// with the plain twin cannot hold there: the sector-split plane's sweeps
// consume different per-delivery fates than the full-tree sweep, and the
// capacity audits legitimately fire on dup-inflated or drop-undercounted
// honest partials. What the zero-adversary contract does promise, and
// this test asserts for every robust kind:
//
//   - ground truth is fate-independent: Truth/Truths/TruthKnown match
//     the plain twin exactly;
//   - no honest node is ever convicted: Quarantined stays 0 (audits may
//     *suspect* an inflated sector, but the descent must vindicate it);
//   - integrity accounting is self-consistent: a nonzero IntegrityBound
//     requires a suspicion to back it;
//   - message faults are non-structural: no crashed or unreachable
//     nodes, no repair traffic;
//   - degradation is no worse than plain: the robust run errors exactly
//     when its twin does (rank overflow on a drop-starved count), with
//     the same message.
//
// Run with -race in CI, like the value-identity test above.
func TestRobustZeroAdversaryMessageFaults(t *testing.T) {
	plans := map[string]faults.Spec{
		"drop":     {Drop: 0.1},
		"dup":      {Dup: 0.1},
		"drop+dup": {Drop: 0.05, Dup: 0.05},
	}
	eng := New(Options{Workers: 1})
	run := func(job Job) Result { return eng.Submit(context.Background(), []Job{job})[0] }
	for name, fs := range plans {
		for _, q := range robustQueries() {
			t.Run(name+"/"+q.Kind, func(t *testing.T) {
				spec := gridSpec(196, 7)
				spec.Faults = fs
				robust := run(Job{Spec: spec, Query: q})
				plain := q
				plain.Robust = false
				ref := run(Job{Spec: spec, Query: plain})

				if robust.Error != ref.Error {
					t.Fatalf("error divergence: robust %q plain %q", robust.Error, ref.Error)
				}
				if robust.Failed() {
					return // both failed identically (e.g. drop-starved rank)
				}
				if !robust.Robust {
					t.Fatal("robust result not marked Robust")
				}
				if robust.Truth != ref.Truth || robust.TruthKnown != ref.TruthKnown {
					t.Fatalf("truth diverged: robust (%g,%v) plain (%g,%v)",
						robust.Truth, robust.TruthKnown, ref.Truth, ref.TruthKnown)
				}
				if len(robust.Truths) != len(ref.Truths) {
					t.Fatalf("robust %d truths, plain %d", len(robust.Truths), len(ref.Truths))
				}
				for i := range robust.Truths {
					if robust.Truths[i] != ref.Truths[i] {
						t.Fatalf("truths[%d]: robust %g plain %g", i, robust.Truths[i], ref.Truths[i])
					}
				}
				if robust.Quarantined != 0 {
					t.Fatalf("honest node convicted under %s: %+v", name, robust)
				}
				if robust.IntegrityBound > 0 && robust.Suspected == 0 {
					t.Fatalf("integrity bound %d with no suspicion", robust.IntegrityBound)
				}
				if robust.Crashed != 0 || robust.Unreachable != 0 || robust.RepairBits != 0 {
					t.Fatalf("message faults are non-structural, got %+v", robust)
				}
			})
		}
	}
}

// TestRobustMessageFaultsParallelMatchesSerial: robust runs under
// message-level plans stay bit-identical between the worker pool and a
// fresh single-worker engine — per-delivery fate streams must fork from
// the run seed, never from pool scheduling. Run with -race in CI.
func TestRobustMessageFaultsParallelMatchesSerial(t *testing.T) {
	var jobs []Job
	for seed := uint64(1); seed <= 4; seed++ {
		spec := gridSpec(196, seed)
		spec.Faults = faults.Spec{Drop: 0.06, Dup: 0.06}
		jobs = append(jobs,
			Job{Spec: spec, Query: Query{Kind: KindMedian, Robust: true}},
			Job{Spec: spec, Query: Query{Kind: KindCount, Robust: true}},
			Job{Spec: spec, Query: Query{Kind: KindFused, Robust: true}},
		)
	}
	results := New(Options{Workers: 6}).Submit(context.Background(), jobs)
	serial := New(Options{Workers: 1})
	for i, got := range results {
		want := serial.Submit(context.Background(), []Job{jobs[i]})[0]
		if got.Error != want.Error {
			t.Fatalf("job %d: error %q != serial %q", i, got.Error, want.Error)
		}
		if got.Value != want.Value || got.TotalBits != want.TotalBits || got.BitsPerNode != want.BitsPerNode {
			t.Errorf("job %d: (%g,%d,%d) != serial (%g,%d,%d)",
				i, got.Value, got.TotalBits, got.BitsPerNode,
				want.Value, want.TotalBits, want.BitsPerNode)
		}
		if got.Suspected != want.Suspected || got.Quarantined != want.Quarantined ||
			got.IntegrityBound != want.IntegrityBound || got.AuditBits != want.AuditBits {
			t.Errorf("job %d: integrity (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
				i, got.Suspected, got.Quarantined, got.IntegrityBound, got.AuditBits,
				want.Suspected, want.Quarantined, want.IntegrityBound, want.AuditBits)
		}
	}
}
