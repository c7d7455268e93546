package engine_test

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/ams"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/query"
	"sensoragg/internal/serve"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// This file holds sensorql statements to the statement executor the engine
// replaced: the query package's Run, verbatim at the bottom but for the "oracle" prefix
// and package qualifiers. Every statement maps through serve.QueryFor and
// runs through engine.Submit, and must give the oracle's value and Values,
// and on a fork the engine ran it on, the oracle's per-node meter and item
// state. The oracle heals its own network first, as the engine does, so
// both sides pay for the repair.

// oracleStatements are the statements TestParseStatements pins, the
// aggregates it leaves out, and two USING probe widths.
var oracleStatements = []string{
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
	"SELECT max(value)",
	"SELECT quantiles(value, 0.25, 0.5, 0.9)",
	"SELECT distinct(value)",
	"SELECT apxcount(value)",
	"SELECT f2(value)",
	"SELECT apxmedian2(value)",
	"SELECT median(value) USING probewidth=2",
	"SELECT quantile(value, 0.9) USING probewidth=1",
}

// oracleWhere is the clause a statement without one gets for its WHERE-on
// run.
const oracleWhere = "WHERE value < 160"

var whereClause = regexp.MustCompile(` WHERE .*?( USING|$)`)

// whereOnOff returns the statement without its WHERE clause and with one
// (its own, or oracleWhere).
func whereOnOff(stmt string) (off, on string) {
	off = whereClause.ReplaceAllString(stmt, "$1")
	if off != stmt {
		return off, stmt
	}
	if head, using, ok := strings.Cut(stmt, " USING "); ok {
		return off, head + " " + oracleWhere + " USING " + using
	}
	return off, stmt + " " + oracleWhere
}

// TestStatementsMatchQueryRunOracle runs every oracle statement with WHERE
// off and on, on a grid, a line and a star, under reliable delivery and
// crashes, through the engine and through the oracle. One exception is
// named: apxmedian2 with WHERE answers over the filtered multiset, where
// the oracle reset the filter and answered over every item, so it is held
// to the filtered truth instead.
func TestStatementsMatchQueryRunOracle(t *testing.T) {
	t.Parallel()
	for _, topo := range []string{"grid", "line", "star"} {
		for _, fs := range []faults.Spec{{}, {Crash: 0.05}} {
			spec := engine.Spec{Topology: topo, N: 64, Workload: "uniform", Seed: 7, Faults: fs}
			t.Run(fmt.Sprintf("%s/crash=%g", topo, fs.Crash), func(t *testing.T) {
				t.Parallel()
				e := engine.New(engine.Options{Workers: 1})
				for _, stmt := range oracleStatements {
					off, on := whereOnOff(stmt)
					for _, s := range []string{off, on} {
						checkStatement(t, e, spec, s)
					}
				}
			})
		}
	}
}

func checkStatement(t *testing.T, e *engine.Engine, spec engine.Spec, stmt string) {
	t.Helper()
	pq, err := query.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := serve.QueryFor(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	got := e.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
	fork, onFork, ferr := e.RunOnFork(spec, q)
	if ferr != nil {
		t.Fatalf("%s: on a fork: %v", stmt, ferr)
	}
	defer fork.Release()

	nw, err := e.Session().Instantiate(spec.Normalize(), spec.Normalize().Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	ops, _, err := spantree.NewFastHealed(nw)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := oracleRun(agg.NewNet(ops), pq)
	if (got.Error != "") != (werr != nil) {
		t.Fatalf("%s: error %q, oracle %v", stmt, got.Error, werr)
	}
	if werr != nil {
		return
	}
	if got.Value != onFork.Value || got.BitsPerNode != onFork.BitsPerNode || got.TotalBits != onFork.TotalBits || got.Messages != onFork.Messages {
		t.Fatalf("%s: Submit %+v, on a fork %+v", stmt, got, onFork)
	}
	switch {
	case pq.Agg == query.AggApxMedian2 && pq.Where != nil:
		// Held to the filtered truth: within an eighth of the domain of
		// the filtered median, over the matching survivors.
		if !got.TruthKnown || math.Abs(got.Value-got.Truth) > float64(nw.MaxX)/8 {
			t.Errorf("%s: %g, filtered truth %g", stmt, got.Value, got.Truth)
		}
		return
	}
	wantValues, gotValues := want.Values, got.Values
	if wantValues == nil {
		wantValues = []float64{want.Value}
	}
	if gotValues == nil {
		gotValues = []float64{got.Value}
	}
	if got.Value != want.Value || !slices.Equal(gotValues, wantValues) {
		t.Errorf("%s on %s: %g %v, oracle %g %v", stmt, spec, got.Value, got.Values, want.Value, want.Values)
	}
	if !slices.Equal(fork.Meter.Ledger(), nw.Meter.Ledger()) {
		t.Errorf("%s on %s: per-node meters diverge from the oracle's (%d vs %d bits/node)", stmt, spec, got.BitsPerNode, want.Comm.MaxPerNode)
	}
	for id := range nw.Nodes {
		if !slices.Equal(fork.Nodes[id].Items, nw.Nodes[id].Items) {
			t.Fatalf("%s on %s: node %d's items after the run %v, oracle %v", stmt, spec, id, fork.Nodes[id].Items, nw.Nodes[id].Items)
		}
	}
	approximate := []string{engine.KindApxMedian, engine.KindApxMedian2, engine.KindApxCount, engine.KindF2, engine.KindApxDistinct}
	if !slices.Contains(approximate, q.Kind) && (!got.TruthKnown || !got.Exact) {
		t.Errorf("%s on %s: %g, truth %g (known %v)", stmt, spec, got.Value, got.Truth, got.TruthKnown)
	}
}

// TestApxMedian2HonoursWhere: apxmedian2 answers over the filtered
// multiset. Its search once reset every item first, undoing the filter, and
// answered over the whole deployment.
func TestApxMedian2HonoursWhere(t *testing.T) {
	e := engine.New(engine.Options{Workers: 1})
	for seed := uint64(1); seed <= 3; seed++ {
		spec := engine.Spec{Topology: "grid", N: 64, Workload: "uniform", Seed: seed}
		q, _, err := serve.QueryFor("SELECT apxmedian2(value) WHERE value < 64")
		if err != nil {
			t.Fatal(err)
		}
		r := e.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
		if r.Failed() {
			t.Fatal(r.Error)
		}
		if !r.TruthKnown || r.Value >= 64+4 || math.Abs(r.Value-r.Truth) > 16 {
			t.Errorf("seed %d: apxmedian2 where value < 64 = %g, filtered median %g", seed, r.Value, r.Truth)
		}
	}
}

// The oracle: the query package's Run and its helpers, verbatim but for the "oracle"
// prefix and package qualifiers.

// oracleResult reports an executed query.
type oracleResult struct {
	// Value is the numeric answer (the first entry of Values for
	// multi-valued aggregates).
	Value float64
	// Values carries every answer of a multi-valued aggregate (quantiles);
	// nil for single-valued queries.
	Values []float64
	// Detail is a human-readable elaboration (iterations, error bars, ...).
	Detail string
	// Comm is the communication the query cost, in the paper's measure.
	Comm netsim.Delta
}

// oracleRun executes a parsed query. WHERE clauses on decomposable aggregates
// ride along as protocol predicates (TAG-style in-network filtering at no
// extra broadcast); selection and distinct queries first broadcast the
// filter to deactivate non-matching items, and reactivate them afterwards.
func oracleRun(net *agg.Net, q *query.Query) (oracleResult, error) {
	nw := net.Network()
	before := nw.Meter.Snapshot()
	pred := wire.True()
	if q.Where != nil {
		pred = *q.Where
	}

	finish := func(value float64, detail string) oracleResult {
		return oracleResult{Value: value, Detail: detail, Comm: nw.Meter.Since(before)}
	}

	switch q.Agg {
	case query.AggMin, query.AggMax:
		lo, hi, ok := oracleFilteredMinMax(net, q)
		if !ok {
			return oracleResult{}, fmt.Errorf("query: no items match")
		}
		if q.Agg == query.AggMin {
			return finish(float64(lo), "exact"), nil
		}
		return finish(float64(hi), "exact"), nil

	case query.AggCount:
		return finish(float64(net.Count(core.Linear, pred)), "exact"), nil

	case query.AggSum:
		return finish(float64(net.Sum(core.Linear, pred)), "exact"), nil

	case query.AggAvg:
		avg, ok := net.Average(core.Linear, pred)
		if !ok {
			return oracleResult{}, fmt.Errorf("query: no items match")
		}
		return finish(avg, "exact (SUM/COUNT)"), nil

	case query.AggApxCount:
		est := net.ApxCount(core.Linear, pred)
		return finish(est, fmt.Sprintf("α-counting instance, σ=%.3f", net.ApxSigma())), nil

	case query.AggMedian, query.AggQuantile, query.AggQuantiles, query.AggApxMedian, query.AggApxMedian2:
		return oracleSelection(net, q, before)

	case query.AggDistinct:
		return oracleDistinctQuery(net, q, before)

	case query.AggF2:
		return oracleF2Query(net, q, before)

	default:
		return oracleResult{}, fmt.Errorf("query: unhandled aggregate %q", q.Agg)
	}
}

func oracleFilteredMinMax(net *agg.Net, q *query.Query) (lo, hi uint64, ok bool) {
	if q.Where == nil {
		return net.MinMax(core.Linear)
	}
	net.Filter(*q.Where)
	defer net.Reset()
	return net.MinMax(core.Linear)
}

// oracleProbeWidth resolves the k-ary probe batch width for selection queries
// from the USING clause: `USING probewidth=K` (session consoles inject
// their SET PROBEWIDTH default here). Unset means core.DefaultProbeWidth;
// width 1 runs the classic one-probe-per-sweep binary search.
func oracleProbeWidth(q *query.Query) (int, error) {
	w, ok := q.Options["probewidth"]
	if !ok {
		return core.DefaultProbeWidth, nil
	}
	if w != math.Trunc(w) || w < 1 || w > core.MaxProbeWidth {
		return 0, fmt.Errorf("query: probewidth %g must be an integer in [1, %d]", w, core.MaxProbeWidth)
	}
	return int(w), nil
}

// oracleSelection runs the order-statistic family over the (possibly filtered)
// active multiset.
func oracleSelection(net *agg.Net, q *query.Query, before netsim.Snapshot) (oracleResult, error) {
	nw := net.Network()
	pw, err := oracleProbeWidth(q)
	if err != nil {
		return oracleResult{}, err
	}
	if q.Where != nil {
		net.Filter(*q.Where)
		defer net.Reset()
	}
	finish := func(value float64, detail string) oracleResult {
		return oracleResult{Value: value, Detail: detail, Comm: nw.Meter.Since(before)}
	}
	switch q.Agg {
	case query.AggMedian:
		// core.MedianBatched and the classic Median are gone: every width
		// runs core.SelectRanksBatched, core.Median being its width 1.
		res, err := core.SelectRanksBatched(net, []core.BatchRank{{Median: true}}, pw)
		if err != nil {
			return oracleResult{}, err
		}
		return finish(float64(res.Values[0]),
			fmt.Sprintf("exact, %d k-ary sweeps (width %d)", res.Sweeps, pw)), nil

	case query.AggQuantile:
		// The width-1 arm (COUNT, then the classic OrderStatistic) is gone:
		// width 1 is the same search as every other width.
		res, err := core.SelectRanksBatched(net, []core.BatchRank{{Phi: q.Phi}}, pw)
		if err != nil {
			return oracleResult{}, err
		}
		return finish(float64(res.Values[0]),
			fmt.Sprintf("exact φ=%g, %d k-ary sweeps (width %d)", q.Phi, res.Sweeps, pw)), nil

	case query.AggQuantiles:
		// Parse enforces this for statements; guard the exported Run path.
		if len(q.Phis) == 0 {
			return oracleResult{}, fmt.Errorf("query: quantiles needs at least one fraction")
		}
		ranks := make([]core.BatchRank, len(q.Phis))
		for i, phi := range q.Phis {
			ranks[i] = core.BatchRank{Phi: phi}
		}
		res, err := core.SelectRanksBatched(net, ranks, pw)
		if err != nil {
			return oracleResult{}, err
		}
		out := finish(float64(res.Values[0]),
			fmt.Sprintf("exact, %d quantiles in %d shared k-ary sweeps (width %d)",
				len(q.Phis), res.Sweeps, pw))
		for _, v := range res.Values {
			out.Values = append(out.Values, float64(v))
		}
		return out, nil

	case query.AggApxMedian:
		params := core.ApxParams{Epsilon: q.Options["eps"]}
		res, err := core.ApxMedian(net, params)
		if err != nil {
			return oracleResult{}, err
		}
		return finish(float64(res.Value),
			fmt.Sprintf("randomized, α=3σ=%.3f, %d counting instances", 3*net.ApxSigma(), res.Instances)), nil

	case query.AggApxMedian2:
		params := core.Apx2Params{Beta: q.Options["beta"], Epsilon: q.Options["eps"]}
		res, err := core.ApxMedian2(net, params)
		if err != nil {
			return oracleResult{}, err
		}
		return finish(float64(res.Value),
			fmt.Sprintf("polyloglog, %d zoom stages, interval [%.0f,%.0f)", res.Stages, res.FinalLo, res.FinalHi)), nil
	}
	return oracleResult{}, fmt.Errorf("query: unhandled selection %q", q.Agg)
}

// oracleF2Query estimates the second frequency moment via the AMS sketch.
func oracleF2Query(net *agg.Net, q *query.Query, before netsim.Snapshot) (oracleResult, error) {
	nw := net.Network()
	if q.Where != nil {
		net.Filter(*q.Where)
		defer net.Reset()
	}
	rows, cols := 5, 64
	if r := q.Options["rows"]; r >= 1 {
		rows = int(r)
	}
	if c := q.Options["cols"]; c >= 1 {
		cols = int(c)
	}
	res, err := ams.F2Protocol(net.Ops(), rows, cols, nw.Seed())
	if err != nil {
		return oracleResult{}, err
	}
	return oracleResult{
		Value:  res.Estimate,
		Detail: fmt.Sprintf("AMS sketch %dx%d, rel. σ ≈ √(2/%d)", rows, cols, cols),
		Comm:   nw.Meter.Since(before),
	}, nil
}

func oracleDistinctQuery(net *agg.Net, q *query.Query, before netsim.Snapshot) (oracleResult, error) {
	nw := net.Network()
	if q.Where != nil {
		net.Filter(*q.Where)
		defer net.Reset()
	}
	finish := func(value float64, detail string) oracleResult {
		return oracleResult{Value: value, Detail: detail, Comm: nw.Meter.Since(before)}
	}
	if q.Options["sketch"] != 0 {
		p := core.DefaultSketchP
		if m := q.Options["m"]; m > 0 {
			p = int(math.Round(math.Log2(m)))
			if p < 0 || p > 16 {
				return oracleResult{}, fmt.Errorf("query: sketch m=%g out of range", m)
			}
		}
		res, err := distinct.Approximate(net.Ops(), p, loglog.EstHLL, nw.Seed())
		if err != nil {
			return oracleResult{}, err
		}
		return finish(res.Estimate, fmt.Sprintf("sketch m=%d, σ=%.3f — exactness costs Ω(n) (Thm 5.1)", 1<<p, res.Sigma)), nil
	}
	res, err := distinct.Exact(net.Ops())
	if err != nil {
		return oracleResult{}, err
	}
	return finish(float64(res.Distinct), "exact (linear-cost set union; Thm 5.1 says unavoidable)"), nil
}
