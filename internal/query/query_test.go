package query

import (
	"math"
	"strings"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// parseCases are well-formed statements and what they parse to.
var parseCases = []struct {
	in      string
	agg     AggKind
	phi     float64
	where   *wire.Pred
	options map[string]float64
}{
	{"SELECT median(value)", AggMedian, 0, nil, nil},
	{"select MIN(value)", AggMin, 0, nil, nil},
	{"SELECT quantile(value, 0.99)", AggQuantile, 0.99, nil, nil},
	{"SELECT count(value) WHERE value < 100", AggCount, 0, predPtr(wire.Less(100)), nil},
	{"SELECT sum(value) WHERE value >= 5", AggSum, 0, predPtr(wire.GreaterEq(5)), nil},
	{"SELECT count(value) WHERE value > 5", AggCount, 0, predPtr(wire.GreaterEq(6)), nil},
	{"SELECT count(value) WHERE value <= 7", AggCount, 0, predPtr(wire.Less(8)), nil},
	{"SELECT count(value) WHERE value = 9", AggCount, 0, predPtr(wire.InRange(9, 10)), nil},
	{"SELECT avg(value) WHERE value BETWEEN 10 AND 20", AggAvg, 0, predPtr(wire.InRange(10, 21)), nil},
	{"SELECT count(value) WHERE value >= 3 AND value < 12", AggCount, 0, predPtr(wire.InRange(3, 12)), nil},
	{"SELECT apxmedian(value) USING eps=0.1", AggApxMedian, 0, nil, map[string]float64{"eps": 0.1}},
	{"SELECT apxmedian2(value) USING eps=0.25, beta=0.0625", AggApxMedian2, 0, nil,
		map[string]float64{"eps": 0.25, "beta": 0.0625}},
	{"SELECT distinct(value) USING sketch=1, m=256", AggDistinct, 0, nil,
		map[string]float64{"sketch": 1, "m": 256}},
}

func TestParseStatements(t *testing.T) {
	for _, tt := range parseCases {
		t.Run(tt.in, func(t *testing.T) {
			q, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if q.Agg != tt.agg {
				t.Errorf("agg = %q, want %q", q.Agg, tt.agg)
			}
			if q.Phi != tt.phi {
				t.Errorf("phi = %g, want %g", q.Phi, tt.phi)
			}
			if (q.Where == nil) != (tt.where == nil) {
				t.Fatalf("where = %v, want %v", q.Where, tt.where)
			}
			if tt.where != nil && *q.Where != *tt.where {
				t.Errorf("where = %+v, want %+v", *q.Where, *tt.where)
			}
			for k, v := range tt.options {
				if q.Options[k] != v {
					t.Errorf("option %s = %g, want %g", k, q.Options[k], v)
				}
			}
		})
	}
}

func predPtr(p wire.Pred) *wire.Pred { return &p }

// TestParseQuantiles covers the multi-quantile form and its edge cases,
// asserting the exact error surface the console shows.
func TestParseQuantiles(t *testing.T) {
	q, err := Parse("SELECT quantiles(value, 0.25, 0.5, 0.9)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Agg != AggQuantiles {
		t.Errorf("agg = %q, want %q", q.Agg, AggQuantiles)
	}
	if len(q.Phis) != 3 || q.Phis[0] != 0.25 || q.Phis[1] != 0.5 || q.Phis[2] != 0.9 {
		t.Errorf("phis = %v", q.Phis)
	}

	// The upper bound 1 is a legal rank (the maximum).
	q, err = Parse("SELECT quantiles(value, 1)")
	if err != nil || len(q.Phis) != 1 || q.Phis[0] != 1 {
		t.Errorf("quantiles(value, 1): phis=%v err=%v", q.Phis, err)
	}

	for _, tc := range []struct {
		in, want string
	}{
		// Empty rank list: the probe plane has nothing to probe.
		{"SELECT quantiles(value)", "at least one fraction"},
		// Duplicate ranks are a user error, not a silent dedupe.
		{"SELECT quantiles(value, 0.5, 0.5)", "duplicate quantile rank"},
		// Bounds: 0 selects nothing, above 1 is no rank at all.
		{"SELECT quantiles(value, 0)", "out of (0,1]"},
		{"SELECT quantiles(value, 0.5, 1.01)", "out of (0,1]"},
	} {
		_, err := Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): err %v, want containing %q", tc.in, err, tc.want)
		}
	}
}

// badStatements are malformed statements Parse must refuse.
var badStatements = []string{
	"",
	"median(value)",                        // missing SELECT
	"SELECT frobnicate(value)",             // unknown aggregate
	"SELECT median(x)",                     // only `value` is a column
	"SELECT quantile(value)",               // missing fraction
	"SELECT quantile(value, 1.5)",          // out of range
	"SELECT median(value) WHERE value ! 3", // bad operator
	"SELECT count(value) WHERE value BETWEEN 9 AND 2",      // inverted
	"SELECT count(value) WHERE value < 3 AND value >= 7",   // empty interval
	"SELECT median(value) USING eps",                       // missing =
	"SELECT median(value) extra",                           // trailing garbage
	"SELECT median(value) WHERE value < 5 WHERE value < 7", // duplicate WHERE
}

func TestParseErrors(t *testing.T) {
	for _, in := range badStatements {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

// FuzzParse: whatever the input, Parse returns a statement or an error —
// exactly one of them — and never panics. A long-lived service parses
// whatever a subscriber sends. The corpus starts from the statements the
// parse tests pin, well-formed and malformed.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.in)
	}
	for _, in := range badStatements {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", in, q, err)
		}
	})
}

func testNet(t *testing.T, values []uint64, maxX uint64) *agg.Net {
	t.Helper()
	g := topology.Grid(8, 8)
	if len(values) != g.N() {
		t.Fatalf("need %d values", g.N())
	}
	nw := netsim.New(g, values, maxX, netsim.WithSeed(5))
	return agg.NewNet(spantree.NewFast(nw))
}

func TestExecAggregates(t *testing.T) {
	const maxX = 1 << 12
	values := workload.Generate(workload.Uniform, 64, maxX, 9)
	sorted := core.SortedCopy(values)
	var sum uint64
	for _, v := range values {
		sum += v
	}
	net := testNet(t, values, maxX)

	tests := []struct {
		stmt string
		want float64
	}{
		{"SELECT min(value)", float64(sorted[0])},
		{"SELECT max(value)", float64(sorted[len(sorted)-1])},
		{"SELECT count(value)", 64},
		{"SELECT sum(value)", float64(sum)},
		{"SELECT avg(value)", float64(sum) / 64},
		{"SELECT median(value)", float64(core.TrueMedian(sorted))},
		{"SELECT quantile(value, 0.25)", float64(core.TrueOrderStatistic(sorted, 16))},
		{"SELECT quantile(value, 1)", float64(sorted[len(sorted)-1])},
		{"SELECT distinct(value)", float64(core.TrueDistinct(values))},
	}
	for _, tt := range tests {
		res, err := Exec(net, tt.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tt.stmt, err)
		}
		if res.Value != tt.want {
			t.Errorf("%s = %g, want %g", tt.stmt, res.Value, tt.want)
		}
		if res.Comm.TotalBits == 0 {
			t.Errorf("%s charged nothing", tt.stmt)
		}
	}
}

// TestExecQuantiles: the multi-quantile statement answers every rank
// exactly (matching separate quantile statements), reports all values, and
// respects the probewidth option down to the width-1 reference search.
func TestExecQuantiles(t *testing.T) {
	const maxX = 1 << 12
	values := workload.Generate(workload.Zipf, 64, maxX, 13)
	sorted := core.SortedCopy(values)
	net := testNet(t, values, maxX)

	res, err := Exec(net, "SELECT quantiles(value, 0.1, 0.5, 0.99)")
	if err != nil {
		t.Fatal(err)
	}
	wantRanks := []int{7, 32, 64} // ⌈φ·64⌉
	if len(res.Values) != 3 {
		t.Fatalf("values = %v, want 3 entries", res.Values)
	}
	for i, k := range wantRanks {
		if want := float64(core.TrueOrderStatistic(sorted, k)); res.Values[i] != want {
			t.Errorf("quantile %d (rank %d) = %g, want %g", i, k, res.Values[i], want)
		}
	}
	if res.Value != res.Values[0] {
		t.Errorf("Value %g != Values[0] %g", res.Value, res.Values[0])
	}

	// probewidth=1 drives the same statement through one-probe sweeps and
	// must agree; an invalid width errors with the full message.
	one, err := Exec(net, "SELECT quantiles(value, 0.1, 0.5, 0.99) USING probewidth=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Values {
		if one.Values[i] != res.Values[i] {
			t.Errorf("width-1 quantile %d = %g, batched %g", i, one.Values[i], res.Values[i])
		}
	}
	if one.Comm.Messages <= res.Comm.Messages {
		t.Errorf("width-1 run used %d messages, batched %d — batching saved nothing",
			one.Comm.Messages, res.Comm.Messages)
	}
	if _, err := Exec(net, "SELECT median(value) USING probewidth=0.5"); err == nil ||
		!strings.Contains(err.Error(), "must be an integer in [1, 1024]") {
		t.Errorf("fractional probewidth: err=%v", err)
	}

	// Batched and width-1 median agree too (same WHERE machinery).
	batched, err := Exec(net, "SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Exec(net, "SELECT median(value) USING probewidth=1")
	if err != nil {
		t.Fatal(err)
	}
	if batched.Value != classic.Value {
		t.Errorf("batched median %g != classic %g", batched.Value, classic.Value)
	}
}

func TestExecWhere(t *testing.T) {
	const maxX = 100
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i) // 0..63
	}
	net := testNet(t, values, maxX)

	res, err := Exec(net, "SELECT count(value) WHERE value < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 10 {
		t.Errorf("count < 10 = %g", res.Value)
	}

	// Median over the filtered sub-multiset 20..39: true median is 29.
	res, err = Exec(net, "SELECT median(value) WHERE value BETWEEN 20 AND 39")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 29 {
		t.Errorf("filtered median = %g, want 29", res.Value)
	}

	// The filter must have been undone: a full count still sees all items.
	res, err = Exec(net, "SELECT count(value)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 64 {
		t.Errorf("post-filter count = %g, want 64 (Reset failed?)", res.Value)
	}

	// Empty selection errors cleanly.
	if _, err := Exec(net, "SELECT median(value) WHERE value >= 99"); err == nil {
		t.Error("empty selection should error")
	}
}

func TestExecApproximate(t *testing.T) {
	const maxX = 1 << 12
	values := workload.Generate(workload.Uniform, 64, maxX, 11)
	sorted := core.SortedCopy(values)
	net := testNet(t, values, maxX)

	res, err := Exec(net, "SELECT apxcount(value)")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-64) > 25 {
		t.Errorf("apxcount = %g, want ≈ 64", res.Value)
	}

	res, err = Exec(net, "SELECT apxmedian(value) USING eps=0.25")
	if err != nil {
		t.Fatal(err)
	}
	med := float64(core.TrueMedian(sorted))
	if math.Abs(res.Value-med) > float64(maxX)/4 {
		t.Errorf("apxmedian = %g, true median %g", res.Value, med)
	}
	if !strings.Contains(res.Detail, "α=3σ") {
		t.Errorf("detail missing guarantee: %q", res.Detail)
	}

	res, err = Exec(net, "SELECT distinct(value) USING sketch=1, m=256")
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(core.TrueDistinct(values))
	if math.Abs(res.Value-truth) > 20 {
		t.Errorf("sketch distinct = %g, truth %g", res.Value, truth)
	}
}

func TestExecF2(t *testing.T) {
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i % 4) // f = (16,16,16,16): F2 = 1024
	}
	net := testNet(t, values, 100)
	res, err := Exec(net, "SELECT f2(value) USING rows=5, cols=64")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1024)/1024 > 0.3 {
		t.Errorf("f2 = %g, want ≈ 1024", res.Value)
	}
}

func TestExecParseErrorPropagates(t *testing.T) {
	net := testNet(t, make([]uint64, 64), 10)
	if _, err := Exec(net, "SELECT nope(value)"); err == nil {
		t.Error("want parse error")
	}
}
