package serve

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

func pred(p wire.Pred) *wire.Pred { return &p }

// TestQueryForMapping: every aggregate maps to its engine kind, WHERE to
// Query.Where, and each aggregate's USING keys to their Query fields;
// unknown keys, keys of another aggregate and out-of-range values are
// errors that name the accepted keys.
func TestQueryForMapping(t *testing.T) {
	for _, tc := range []struct {
		stmt   string
		want   engine.Query
		nranks int
	}{
		{"SELECT median(value)", engine.Query{Kind: engine.KindMedian}, 1},
		{"SELECT median(value) USING probewidth=2", engine.Query{Kind: engine.KindMedian, ProbeWidth: 2}, 1},
		{"SELECT quantile(value, 0.9) USING probewidth=1", engine.Query{Kind: engine.KindQuantiles, Phis: []float64{0.9}, ProbeWidth: 1}, 1},
		{"SELECT quantiles(value, 0.25, 0.5)", engine.Query{Kind: engine.KindQuantiles, Phis: []float64{0.25, 0.5}}, 2},
		{"SELECT min(value)", engine.Query{Kind: engine.KindMin}, 0},
		{"SELECT max(value)", engine.Query{Kind: engine.KindMax}, 0},
		{"SELECT count(value) WHERE value < 100", engine.Query{Kind: engine.KindCount, Where: pred(wire.Less(100))}, 0},
		{"SELECT sum(value)", engine.Query{Kind: engine.KindSum}, 0},
		{"SELECT avg(value) WHERE value BETWEEN 10 AND 20", engine.Query{Kind: engine.KindAvg, Where: pred(wire.InRange(10, 21))}, 0},
		{"SELECT median(value) WHERE value >= 5 USING probewidth=4", engine.Query{Kind: engine.KindMedian, Where: pred(wire.GreaterEq(5)), ProbeWidth: 4}, 1},
		{"SELECT apxmedian(value) USING eps=0.1", engine.Query{Kind: engine.KindApxMedian, Eps: 0.1}, 0},
		{"SELECT apxmedian2(value) USING eps=0.25, beta=0.0625", engine.Query{Kind: engine.KindApxMedian2, Eps: 0.25, Beta: 0.0625}, 0},
		{"SELECT distinct(value)", engine.Query{Kind: engine.KindDistinct}, 0},
		{"SELECT distinct(value) USING sketch=0", engine.Query{Kind: engine.KindDistinct}, 0},
		{"SELECT distinct(value) USING sketch=1", engine.Query{Kind: engine.KindApxDistinct}, 0},
		{"SELECT distinct(value) USING sketch=1, m=256", engine.Query{Kind: engine.KindApxDistinct, SketchP: 8}, 0},
		{"SELECT distinct(value) USING sketch=1, m=2", engine.Query{Kind: engine.KindApxDistinct, SketchP: 1}, 0},
		{"SELECT distinct(value) USING sketch=1, m=65536", engine.Query{Kind: engine.KindApxDistinct, SketchP: 16}, 0},
		{"SELECT apxcount(value)", engine.Query{Kind: engine.KindApxCount}, 0},
		{"SELECT f2(value)", engine.Query{Kind: engine.KindF2}, 0},
	} {
		q, nranks, err := QueryFor(tc.stmt)
		if err != nil || nranks != tc.nranks || !reflect.DeepEqual(q, tc.want) {
			t.Errorf("%s: %+v, %d ranks, %v; want %+v, %d ranks", tc.stmt, q, nranks, err, tc.want, tc.nranks)
		}
	}

	for _, tc := range []struct{ stmt, want string }{
		{"SELECT median(value) USING probwidth=2", `median takes no USING key "probwidth" (accepted: probewidth)`},
		{"SELECT median(value) USING probewidth=0.5", "probewidth 0.5 must be an integer in [1, 1024] (accepted: probewidth)"},
		{"SELECT median(value) USING probewidth=0", "must be an integer"},
		{"SELECT quantiles(value, 0.5) USING probewidth=2000", "must be an integer"},
		{"SELECT count(value) USING probewidth=4", `count takes no USING key "probewidth" (accepted: none)`},
		{"SELECT apxmedian(value) USING beta=0.1", `apxmedian takes no USING key "beta" (accepted: eps)`},
		{"SELECT apxmedian(value) USING eps=0", "eps 0 must be in [0.01, 1) (accepted: eps)"},
		{"SELECT apxmedian2(value) USING eps=1", "eps 1 must be in [0.01, 1) (accepted: eps, beta)"},
		{"SELECT apxmedian2(value) USING beta=0.0001", "beta 0.0001 must be in [1/1024, 1)"},
		{"SELECT distinct(value) USING sketch=2", "sketch 2 must be 0 (exact) or 1 (accepted: sketch, m)"},
		{"SELECT distinct(value) USING m=256", "m needs sketch=1 (accepted: sketch, m)"},
		{"SELECT distinct(value) USING sketch=1, m=1", "sketch m=1 must round to 2^1..2^16 registers"},
		{"SELECT distinct(value) USING sketch=1, m=0", "sketch m=0 must round to 2^1..2^16 registers"},
		{"SELECT distinct(value) USING sketch=1, m=100000", "must round to 2^1..2^16"},
		{"SELECT f2(value) USING rows=5", `f2 takes no USING key "rows" (accepted: none)`},
		{"SELECT f2(value) USING cols=64", `f2 takes no USING key "cols" (accepted: none)`},
		{"SELECT nope(value)", "unknown aggregate"},
	} {
		if _, _, err := QueryFor(tc.stmt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.stmt, err, tc.want)
		}
	}
}

// TestRobustCapabilityAndRejections: a robust service stamps Robust only
// on the statements the robust tier answers — an apxmedian or a WHERE
// subscription runs plain and succeeds — while the engine refuses a WHERE
// statement on the robust tier and under a phased fault plan.
func TestRobustCapabilityAndRejections(t *testing.T) {
	spec := testSpec(5)
	spec.Faults.Byz = 0.05
	svc, err := New(Options{Spec: spec, Robust: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, stmt := range []string{"SELECT apxmedian(value)", "SELECT median(value) WHERE value < 9000", "SELECT median(value)"} {
		if _, err := svc.Subscribe(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	out := svc.AdvanceEpoch(context.Background())
	for i, robust := range []bool{false, false, true} {
		if out[i].Failed() || out[i].Robust != robust {
			t.Errorf("subscription %d: robust %v, error %q; want robust %v and an answer", i, out[i].Robust, out[i].Error, robust)
		}
	}

	q, _, err := QueryFor("SELECT median(value) WHERE value < 9000")
	if err != nil {
		t.Fatal(err)
	}
	robust := q
	robust.Robust = true
	phased := testSpec(5)
	phased.Faults = faults.Spec{MidAt: 2, MidCrash: 0.05}
	eng := engine.New(engine.Options{})
	for _, tc := range []struct {
		job  engine.Job
		want string
	}{
		{engine.Job{Spec: testSpec(5), Query: robust}, "robust"},
		{engine.Job{Spec: phased, Query: q}, "phased"},
	} {
		if r := eng.Submit(context.Background(), []engine.Job{tc.job})[0]; !strings.Contains(r.Error, tc.want) {
			t.Errorf("%+v: error %q, want one naming %q", tc.job.Query, r.Error, tc.want)
		}
	}
}

// TestUpdateClampsToDomain: a drift model that overshoots the domain is
// clamped to MaxX before the epoch's queries see it.
func TestUpdateClampsToDomain(t *testing.T) {
	spec := testSpec(2)
	svc, err := New(Options{Spec: spec, Update: func(int, topology.NodeID, uint64) uint64 { return 1 << 40 }})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Subscribe(context.Background(), "SELECT max(value)"); err != nil {
		t.Fatal(err)
	}
	if r := svc.AdvanceEpoch(context.Background())[0]; r.Failed() || r.Value != float64(spec.MaxX) || !r.Exact {
		t.Fatalf("max after an overshooting drift: %g (%s), want the domain bound %d", r.Value, r.Error, spec.MaxX)
	}
}

// statementSeeds are the statements the parser's tests pin, well-formed
// and malformed, with the aggregates they leave out.
var statementSeeds = []string{
	"SELECT median(value)",
	"select MIN(value)",
	"SELECT quantile(value, 0.99)",
	"SELECT count(value) WHERE value < 100",
	"SELECT sum(value) WHERE value >= 5",
	"SELECT count(value) WHERE value > 5",
	"SELECT count(value) WHERE value <= 7",
	"SELECT count(value) WHERE value = 9",
	"SELECT avg(value) WHERE value BETWEEN 10 AND 20",
	"SELECT count(value) WHERE value >= 3 AND value < 12",
	"SELECT apxmedian(value) USING eps=0.1",
	"SELECT apxmedian2(value) USING eps=0.25, beta=0.0625",
	"SELECT distinct(value) USING sketch=1, m=256",
	"SELECT quantiles(value, 0.25, 0.5, 0.9) WHERE value >= 30 USING probewidth=3",
	"SELECT apxcount(value) WHERE value < 40",
	"SELECT f2(value) WHERE value BETWEEN 5 AND 50",
	"SELECT max(value) WHERE value > 99999999",
	"SELECT median(value) WHERE value = 0",
	"SELECT median(value) WHERE value < 5 WHERE value < 7",
	"SELECT quantile(value)",
}

// FuzzStatement: whatever a subscriber sends, QueryFor → Submit on a
// 16-node grid, reliable and under crashes, returns an answer or an error;
// nothing panics, in the engine either (Submit would report the panic as
// an error).
func FuzzStatement(f *testing.F) {
	for _, s := range statementSeeds {
		f.Add(s)
	}
	eng := engine.New(engine.Options{Workers: 1})
	specs := []engine.Spec{
		{Topology: "grid", N: 16, Workload: "uniform", Seed: 3},
		{Topology: "grid", N: 16, Workload: "uniform", Seed: 3, Faults: faults.Spec{Crash: 0.1}},
	}
	f.Fuzz(func(t *testing.T, stmt string) {
		q, _, err := QueryFor(stmt)
		if err != nil {
			return
		}
		for _, spec := range specs {
			r := eng.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
			if strings.Contains(r.Error, "panicked") {
				t.Fatalf("%q on %s: %s", stmt, spec, r.Error)
			}
		}
	})
}
