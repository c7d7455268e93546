package engine

import (
	"context"
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/wire"
)

// identityFields compares everything a run reports that must be
// bit-identical across execution modes.
func identityFields(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Failed() || want.Failed() {
		t.Fatalf("%s: failed run (got %q, want %q)", label, got.Error, want.Error)
	}
	if got.Value != want.Value {
		t.Errorf("%s: value %v, want %v", label, got.Value, want.Value)
	}
	if len(got.Values) != len(want.Values) {
		t.Errorf("%s: values %v, want %v", label, got.Values, want.Values)
	} else {
		for i := range got.Values {
			if got.Values[i] != want.Values[i] {
				t.Errorf("%s: values[%d] = %v, want %v", label, i, got.Values[i], want.Values[i])
			}
		}
	}
	if got.Detail != want.Detail {
		t.Errorf("%s: detail %q, want %q", label, got.Detail, want.Detail)
	}
	if got.BitsPerNode != want.BitsPerNode {
		t.Errorf("%s: bits/node %d, want %d", label, got.BitsPerNode, want.BitsPerNode)
	}
	if got.TotalBits != want.TotalBits {
		t.Errorf("%s: total bits %d, want %d", label, got.TotalBits, want.TotalBits)
	}
	if got.Messages != want.Messages {
		t.Errorf("%s: messages %d, want %d", label, got.Messages, want.Messages)
	}
	if got.Crashed != want.Crashed || got.Unreachable != want.Unreachable || got.RepairBits != want.RepairBits {
		t.Errorf("%s: fault impact (%d,%d,%d), want (%d,%d,%d)", label,
			got.Crashed, got.Unreachable, got.RepairBits,
			want.Crashed, want.Unreachable, want.RepairBits)
	}
}

// statementCase labels the case a kind-by-kind test adds beside the
// kinds: a sensorql statement with a WHERE clause, as serve.QueryFor maps
// it (queryFor and allKindQueries name the statement).
const statementCase = "statement"

// lessThan is the query predicate "value < c".
func lessThan(c uint64) *wire.Pred {
	p := wire.Less(c)
	return &p
}

// queryFor builds a runnable query for each kind, and for statementCase
// `SELECT count(value) WHERE value < 200`.
func queryFor(kind string) Query {
	q := Query{Kind: kind}
	switch kind {
	case statementCase:
		q = Query{Kind: KindCount, Where: lessThan(200)}
	case KindQuantile:
		q.Phi = 0.75
	case KindQuantiles:
		q.Phis = []float64{0.25, 0.5, 0.9}
	}
	return q
}

// pinned returns an engine whose every run sweeps the tree on the given
// kernel schedule: 1 sequential, k > 1 a team of k. 0 is the production
// unit rule on a four-worker pool, which gives a one-job Submit a team of
// four.
func pinned(treeWorkers int) *Engine {
	if treeWorkers == 0 {
		return New(Options{Workers: 4})
	}
	e := New(Options{Workers: 1})
	e.treeWorkers = treeWorkers
	return e
}

// teamWorkers is the team size the identity gates pin, whatever the
// host's core count: odd, so the partition's members are uneven.
const teamWorkers = 3

// schedules are the kernel schedules the identity gates compare against
// the sequential reference.
var schedules = []struct {
	name    string
	workers int
}{{"unit-rule", 0}, {"team", teamWorkers}}

// TestFastEngineVariantsIdenticalAllKinds is the schedule identity gate at
// the query-engine level: for every query kind, the sequential kernel
// schedule, the production unit rule and a pinned team must report
// byte-identical values, details, and meters.
func TestFastEngineVariantsIdenticalAllKinds(t *testing.T) {
	for _, kind := range append(Kinds(), statementCase) {
		t.Run(kind, func(t *testing.T) {
			spec := Spec{Topology: "grid", N: 64, Workload: "uniform", Seed: 5}
			if kind == KindSingleHop {
				spec.Topology = "complete"
			}
			job := []Job{{Spec: spec, Query: queryFor(kind)}}
			ref := pinned(1).Submit(context.Background(), job)[0]
			if ref.Failed() {
				t.Fatalf("reference run: %s", ref.Error)
			}
			for _, sc := range schedules {
				identityFields(t, sc.name, pinned(sc.workers).Submit(context.Background(), job)[0], ref)
			}
		})
	}
}

// TestFastEngineVariantsIdenticalUnderFaults repeats the identity gate
// with an active fault plan — crashes force a heal before the query,
// drop/dup exercises the per-edge delivery decisions — for the tree kinds
// that support structural faults.
func TestFastEngineVariantsIdenticalUnderFaults(t *testing.T) {
	fs := faults.Spec{Crash: 0.08, Drop: 0.03, Dup: 0.03}
	for _, kind := range []string{KindMedian, KindCount, KindSum, KindMin, KindQDigest, KindSampling, KindCollectAll, KindApxDistinct} {
		t.Run(kind, func(t *testing.T) {
			spec := Spec{Topology: "grid", N: 144, Workload: "uniform", Seed: 9, Faults: fs}
			job := []Job{{Spec: spec, Query: queryFor(kind)}}
			ref := pinned(1).Submit(context.Background(), job)[0]
			if ref.Failed() {
				t.Fatalf("reference run: %s", ref.Error)
			}
			if ref.Crashed == 0 {
				t.Fatalf("fault plan crashed no nodes — test is vacuous")
			}
			for _, sc := range schedules {
				identityFields(t, sc.name, pinned(sc.workers).Submit(context.Background(), job)[0], ref)
			}
		})
	}
}

// TestPooledInstantiateIdenticalAcrossReuse issues the same job through
// one engine repeatedly so the session's fork pool recycles networks, and
// demands every repetition reproduce the first run exactly — the
// engine-level proof that a pooled reset-in-place equals a fresh fork.
func TestPooledInstantiateIdenticalAcrossReuse(t *testing.T) {
	eng := New(Options{Workers: 1})
	mk := func(kind string, fs faults.Spec) Job {
		return Job{
			Spec:  Spec{Topology: "grid", N: 100, Workload: "zipf", Seed: 3, Faults: fs},
			Query: queryFor(kind),
		}
	}
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"median", mk(KindMedian, faults.Spec{})},
		{"apxdistinct", mk(KindApxDistinct, faults.Spec{})},
		{"median-faulty", mk(KindMedian, faults.Spec{Crash: 0.05, Drop: 0.02})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := eng.Submit(context.Background(), []Job{tc.job})[0]
			if first.Failed() {
				t.Fatalf("first run: %s", first.Error)
			}
			for i := 0; i < 4; i++ {
				again := eng.Submit(context.Background(), []Job{tc.job})[0]
				identityFields(t, "recycled run", again, first)
			}
		})
	}
}

// TestTeamSizeUnitRule pins how a Submit's units share the pool: each
// unit's tree kernel runs on a team of max(1, Workers ÷ units), so a
// one-unit Submit sweeps on every worker and a Submit of many keeps its
// parallelism across units; treeWorkers overrides the rule.
func TestTeamSizeUnitRule(t *testing.T) {
	for _, c := range []struct{ workers, units, want int }{
		{2, 1, 2}, {2, 2, 1}, {2, 6, 1}, {4, 1, 4}, {4, 2, 2}, {4, 3, 1}, {8, 3, 2}, {1, 1, 1},
	} {
		if got := New(Options{Workers: c.workers}).teamSize(c.units); got != c.want {
			t.Errorf("%d workers, %d units: team of %d, want %d", c.workers, c.units, got, c.want)
		}
	}
	if got := pinned(teamWorkers).teamSize(5); got != teamWorkers {
		t.Errorf("treeWorkers %d: team of %d", teamWorkers, got)
	}
}
