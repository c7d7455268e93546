package query_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/serve"
	"sensoragg/internal/workload"
)

// These tests run statements end to end the way every caller does: parsed
// and mapped by serve.QueryFor, answered by engine.Submit on a 64-node grid
// whose readings are the test's values.

// execAll answers the statements over values (node i reads values[i]) in
// the domain [0, maxX], in order.
func execAll(t *testing.T, values []uint64, maxX uint64, stmts ...string) []engine.Result {
	t.Helper()
	jobs := make([]engine.Job, len(stmts))
	for i, s := range stmts {
		q, _, err := serve.QueryFor(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		jobs[i] = engine.Job{
			Spec:    engine.Spec{Topology: "grid", N: len(values), Workload: "uniform", MaxX: maxX, Seed: 5},
			Query:   q,
			Overlay: &engine.Overlay{Values: values},
		}
	}
	return engine.New(engine.Options{Workers: 1}).Submit(context.Background(), jobs)
}

// exec answers one statement over values.
func exec(t *testing.T, values []uint64, maxX uint64, stmt string) engine.Result {
	t.Helper()
	r := execAll(t, values, maxX, stmt)[0]
	if r.Failed() {
		t.Fatalf("%s: %s", stmt, r.Error)
	}
	return r
}

func TestExecAggregates(t *testing.T) {
	const maxX = 1 << 12
	values := workload.Generate(workload.Uniform, 64, maxX, 9)
	sorted := core.SortedCopy(values)
	var sum uint64
	for _, v := range values {
		sum += v
	}

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
		res := exec(t, values, maxX, tt.stmt)
		if res.Value != tt.want {
			t.Errorf("%s = %g, want %g", tt.stmt, res.Value, tt.want)
		}
		if !res.Exact {
			t.Errorf("%s = %g, truth %g", tt.stmt, res.Value, res.Truth)
		}
		if res.TotalBits == 0 {
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

	res := exec(t, values, maxX, "SELECT quantiles(value, 0.1, 0.5, 0.99)")
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
	one := exec(t, values, maxX, "SELECT quantiles(value, 0.1, 0.5, 0.99) USING probewidth=1")
	for i := range res.Values {
		if one.Values[i] != res.Values[i] {
			t.Errorf("width-1 quantile %d = %g, batched %g", i, one.Values[i], res.Values[i])
		}
	}
	if one.Messages <= res.Messages {
		t.Errorf("width-1 run used %d messages, batched %d — batching saved nothing",
			one.Messages, res.Messages)
	}
	if _, _, err := serve.QueryFor("SELECT median(value) USING probewidth=0.5"); err == nil ||
		!strings.Contains(err.Error(), "must be an integer in [1, 1024]") {
		t.Errorf("fractional probewidth: err=%v", err)
	}

	// Batched and width-1 median agree too.
	batched := exec(t, values, maxX, "SELECT median(value)")
	classic := exec(t, values, maxX, "SELECT median(value) USING probewidth=1")
	if batched.Value != classic.Value {
		t.Errorf("batched median %g != classic %g", batched.Value, classic.Value)
	}
}

// TestExecWhere: WHERE clauses filter in-network (count) or first (median)
// and every statement sees only its own filter: the full count after the
// filtered ones still counts every item.
func TestExecWhere(t *testing.T) {
	const maxX = 100
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i) // 0..63
	}

	rs := execAll(t, values, maxX,
		"SELECT count(value) WHERE value < 10",
		"SELECT median(value) WHERE value BETWEEN 20 AND 39",
		"SELECT count(value)",
		"SELECT median(value) WHERE value >= 99")
	if rs[0].Value != 10 {
		t.Errorf("count < 10 = %g", rs[0].Value)
	}
	// Median over the filtered sub-multiset 20..39: true median is 29.
	if rs[1].Value != 29 || !rs[1].Exact {
		t.Errorf("filtered median = %g (truth %g), want 29", rs[1].Value, rs[1].Truth)
	}
	if rs[2].Value != 64 {
		t.Errorf("post-filter count = %g, want 64", rs[2].Value)
	}
	// Empty selection errors cleanly.
	if !rs[3].Failed() {
		t.Error("empty selection should error")
	}
}

func TestExecApproximate(t *testing.T) {
	const maxX = 1 << 12
	values := workload.Generate(workload.Uniform, 64, maxX, 11)
	sorted := core.SortedCopy(values)

	res := exec(t, values, maxX, "SELECT apxcount(value)")
	if math.Abs(res.Value-64) > 25 {
		t.Errorf("apxcount = %g, want ≈ 64", res.Value)
	}
	if !strings.Contains(res.Detail, "σ=") {
		t.Errorf("apxcount detail missing its error bar: %q", res.Detail)
	}

	res = exec(t, values, maxX, "SELECT apxmedian(value) USING eps=0.25")
	med := float64(core.TrueMedian(sorted))
	if math.Abs(res.Value-med) > float64(maxX)/4 {
		t.Errorf("apxmedian = %g, true median %g", res.Value, med)
	}

	res = exec(t, values, maxX, "SELECT distinct(value) USING sketch=1, m=256")
	truth := float64(core.TrueDistinct(values))
	if math.Abs(res.Value-truth) > 20 {
		t.Errorf("sketch distinct = %g, truth %g", res.Value, truth)
	}
	if !strings.Contains(res.Detail, "m=256") {
		t.Errorf("sketch distinct detail %q does not name m=256", res.Detail)
	}
}

func TestExecF2(t *testing.T) {
	values := make([]uint64, 64)
	for i := range values {
		values[i] = uint64(i % 4) // f = (16,16,16,16): F2 = 1024
	}
	res := exec(t, values, 100, "SELECT f2(value)")
	if math.Abs(res.Value-1024)/1024 > 0.3 {
		t.Errorf("f2 = %g, want ≈ 1024", res.Value)
	}
	if res.Truth != 1024 {
		t.Errorf("f2 truth = %g, want 1024", res.Truth)
	}
	if _, _, err := serve.QueryFor("SELECT f2(value) USING rows=5, cols=64"); err == nil {
		t.Error("f2 accepted rows/cols")
	}
}

func TestExecParseErrorPropagates(t *testing.T) {
	if _, _, err := serve.QueryFor("SELECT nope(value)"); err == nil {
		t.Error("want parse error")
	}
}
