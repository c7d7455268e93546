package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/ams"
	"sensoragg/internal/baseline"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/gk"
	"sensoragg/internal/gossip"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/qdigest"
	"sensoragg/internal/sampling"
	"sensoragg/internal/singlehop"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// Query kinds the engine executes. They mirror cmd/aggsim's -query values.
const (
	KindMedian         = "median"
	KindOrderStat      = "os"
	KindQuantile       = "quantile"
	KindApxMedian      = "apxmedian"
	KindApxMedian2     = "apxmedian2"
	KindMin            = "min"
	KindMax            = "max"
	KindCount          = "count"
	KindSum            = "sum"
	KindAvg            = "avg"
	KindDistinct       = "distinct"
	KindApxDistinct    = "apxdistinct"
	KindQDigest        = "qdigest"
	KindGK             = "gk"
	KindSampling       = "sampling"
	KindGossip         = "gossip"
	KindGossipDistinct = "gossipdistinct"
	KindCollectAll     = "collectall"
	KindSingleHop      = "singlehop"
	KindBuildTree      = "buildtree"
	// KindApxCount is one α-counting instance (Fact 2.2): COUNT up to
	// the sketch's relative error σ.
	KindApxCount = "apxcount"
	// KindF2 estimates the second frequency moment Σf² with the AMS sketch
	// at 5 rows × 64 columns.
	KindF2 = "f2"
	// KindQuantiles answers every quantile in Query.Phis with one shared
	// k-ary probe schedule (one search on a core.Plane).
	KindQuantiles = "quantiles"
	// KindFused answers COUNT+SUM+MIN+MAX (Query.Aggs) with one fused
	// vector sweep instead of one sweep per aggregate.
	KindFused = "fused"
)

// WithDefaults returns the query with unset tunables resolved to the
// engine defaults — the normalization every run applies, exported for CLIs
// and tests that inspect the resolved configuration.
func (q Query) WithDefaults() Query {
	if q.Eps == 0 {
		q.Eps = 0.25
	}
	if q.Beta == 0 {
		q.Beta = 1.0 / 64
	}
	if q.SketchP == 0 {
		q.SketchP = core.DefaultSketchP
	}
	if q.ProbeWidth == 0 {
		q.ProbeWidth = core.DefaultProbeWidth
	}
	if q.Kind == KindFused && len(q.Aggs) == 0 {
		q.Aggs = []string{"count", "sum", "min", "max"}
	}
	return q
}

// String labels the query for reports.
func (q Query) String() string {
	if q.Where != nil {
		return fmt.Sprintf("%s where %s", q.Kind, q.Where)
	}
	return q.Kind
}

// kind describes one query kind, once: what it runs on, which fault plans
// and tiers it takes, and how it is answered. The solo path, the fusion
// batch, the mid-flight retry and the degraded answer all read its entry
// in the kinds table.
type kind struct {
	name string
	// tree: the kind runs on the spanning tree, healed around structural
	// faults first; the gossip and radio kinds run on the graph, and
	// buildtree constructs the tree.
	tree bool
	// robust: the kind runs on the byz tier's trimmed sector-split plane
	// (Query.Robust). Only the exact aggregates have trimmed primitives: the
	// sketches are that tier's cross-check, and apxmedian2 zooms.
	robust bool
	plans  planSupport
	where  whereSupport // how Query.Where is honoured
	// vector: the answer is a vector (Values, Truths), one entry per rank
	// or aggregate, even when there is only one.
	vector bool
	// member resolves a fusable kind's batch slot against a population of
	// n, failing with the error its solo run reports for the parameters.
	// nil for the kinds that keep a private schedule.
	member func(q Query, n uint64) (member, error)
	// batchDetail names a fusable kind's answer in a batch whose shared
	// schedule the string shared describes.
	batchDetail func(m member, shared string) string
	// alone answers an aggregate kind alone on r's plane with its one-sweep
	// primitive: the slot's result, the sweeps it counts and the answer's
	// detail. A selection alone is a batch of one.
	alone func(r run) (memberResult, int, string, error)
	// solo answers any other kind alone on r's plane: its value and detail,
	// held against truth, its ground truth over r's population. Arms take r
	// by value: one called through a function value moves a pointer's run
	// to the heap.
	solo  func(r run) (float64, string, error)
	truth func(r run) float64
}

// planSupport is which fault plans a kind executes honestly, besides the
// rule that only tree kinds take structural faults (they self-heal).
type planSupport uint8

const (
	plansUnphased planSupport = iota // every plan but a phased (mid-sweep) one
	// plansRetry: phased plans too — the exact selection and aggregate
	// kinds detect the incomplete sweep, re-heal and resume (retry.go).
	plansRetry
	// plansNative: phased plans too — the epidemic protocol keeps running
	// over the survivors past the fire and degrades gracefully.
	plansNative
	plansNone // no plan at all: the construction assumes the full node set
)

// whereSupport is how a kind honours Query.Where.
type whereSupport uint8

const (
	whereNone whereSupport = iota // a predicate is rejected
	// whereInNetwork: the kind's protocol evaluates the predicate at every
	// node (TAG-style in-network filtering, no extra broadcast).
	whereInNetwork
	// whereFilter: the plane broadcasts the predicate to deactivate the
	// items it does not match, the kind runs, and the unit reactivates them.
	whereFilter
)

// whereFor vets q's predicate for the kind and fits it to the domain
// [0, maxX]: a bound past maxX is no bound at all, so every threshold the
// network is sent fits its value width.
func (k *kind) whereFor(q Query, maxX uint64) (wire.Pred, error) {
	p := *q.Where
	switch {
	case k.where == whereNone:
		return p, fmt.Errorf("engine: %s does not support WHERE", k.name)
	case q.Robust:
		return p, fmt.Errorf("engine: WHERE does not support robust mode (the byz tier's trimmed plane has no filter)")
	case p.Kind < wire.PredTrue || p.Kind > wire.PredInRange:
		return p, fmt.Errorf("engine: invalid WHERE predicate kind %d", p.Kind)
	}
	if p.Kind == wire.PredInRange && p.B > maxX {
		p = wire.GreaterEq(min(p.A, p.B))
	}
	switch {
	case p.Kind == wire.PredLess && p.A > maxX:
		return wire.True(), nil
	case p.Kind == wire.PredGreaterEq && p.A > maxX, p.Kind == wire.PredInRange && p.A >= p.B:
		return wire.Less(0), nil // matches nothing
	}
	return p, nil
}

// faultSupport rejects, with an explanation instead of a downstream
// protocol error, a fault plan the kind cannot execute honestly.
func (k *kind) faultSupport(fs faults.Spec) error {
	switch {
	case k.plans == plansNone:
		return fmt.Errorf("engine: %s does not support fault plans (the construction protocol assumes the full node set)", k.name)
	case !k.tree && fs.Structural():
		return fmt.Errorf("engine: %s does not support structural faults (crash/linkfail) — only tree queries self-heal; message faults (drop/dup) are fine", k.name)
	case fs.Phased() && k.plans == plansUnphased:
		return fmt.Errorf("engine: %s does not support phased (mid-sweep) fault plans — only the exact selection/aggregate tree kinds retry, and the gossip kinds degrade natively", k.name)
	}
	return nil
}

// kinds is the engine's kind table, in Kinds() order.
var kinds = [...]kind{
	{name: KindMedian, tree: true, robust: true, plans: plansRetry, where: whereFilter,
		member:      func(q Query, _ uint64) (member, error) { return selection(q, medianRank...) },
		batchDetail: func(_ member, shared string) string { return shared }},
	{name: KindOrderStat, tree: true, robust: true, plans: plansRetry, where: whereFilter,
		member:      func(q Query, n uint64) (member, error) { return rankMember(q, q.K, n) },
		batchDetail: rankDetail},
	{name: KindQuantile, tree: true, robust: true, plans: plansRetry, where: whereFilter,
		member: func(q Query, n uint64) (member, error) {
			if q.Phi <= 0 || q.Phi > 1 {
				return member{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", q.Phi)
			}
			return rankMember(q, core.QuantileRank(q.Phi, n), n)
		},
		batchDetail: rankDetail},
	// Ranks are φ-resolved against the protocol-counted N inside the search
	// (folded into the first sweep), so the kind degrades under message
	// faults exactly like median does: a corrupted count skews the answer
	// instead of tripping a rank-vs-population mismatch.
	{name: KindQuantiles, tree: true, robust: true, plans: plansRetry, vector: true, where: whereFilter,
		member: func(q Query, _ uint64) (member, error) {
			if len(q.Phis) == 0 {
				return member{}, fmt.Errorf("engine: quantiles requires at least one phi")
			}
			ranks := make([]core.BatchRank, len(q.Phis))
			for i, phi := range q.Phis {
				if phi <= 0 || phi > 1 {
					return member{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", phi)
				}
				ranks[i] = core.BatchRank{Phi: phi}
			}
			return selection(q, ranks...)
		},
		batchDetail: func(m member, shared string) string { return fmt.Sprintf("%d quantiles, %s", len(m.ranks), shared) }},
	{name: KindFused, tree: true, robust: true, plans: plansRetry, vector: true,
		member: func(q Query, _ uint64) (member, error) {
			for _, a := range q.Aggs {
				if !slices.Contains([]string{"count", "sum", "min", "max", "avg"}, a) {
					return member{}, fmt.Errorf("engine: unknown fused aggregate %q (count|sum|min|max|avg)", a)
				}
			}
			return member{aggs: q.Aggs}, nil
		},
		batchDetail: riderDetail,
		alone: func(r run) (memberResult, int, string, error) {
			count, sum, lo, hi, ok := r.net.MultiAggregate(core.Linear, wire.True())
			if !ok {
				return memberResult{}, 0, "", errEmptyNetwork
			}
			return memberResult{aggValues: aggValues(r.q.Aggs, &fact21{count, sum, lo, hi})}, 1, "fused vector sweep (count+sum+min+max)", nil
		}},
	{name: KindApxMedian, tree: true, where: whereFilter, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := core.ApxMedian(r.net, core.ApxParams{Epsilon: r.q.Eps})
		return float64(res.Value), fmt.Sprintf("%d α-counting instances, halted early: %v", res.Instances, res.HaltedEarly), err
	}},
	{name: KindApxMedian2, tree: true, where: whereFilter, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := core.ApxMedian2(r.net, core.Apx2Params{Beta: r.q.Beta, Epsilon: r.q.Eps})
		return float64(res.Value), fmt.Sprintf("%d zoom stages, %d instances", res.Stages, res.Instances), err
	}},
	aggregateKind(KindMin, "exact", whereFilter, func(net aggregator, _ wire.Pred) (float64, bool) {
		v, ok := net.Min(core.Linear)
		return float64(v), ok
	}),
	aggregateKind(KindMax, "exact", whereFilter, func(net aggregator, _ wire.Pred) (float64, bool) {
		v, ok := net.Max(core.Linear)
		return float64(v), ok
	}),
	aggregateKind(KindCount, "exact", whereInNetwork, func(net aggregator, pred wire.Pred) (float64, bool) {
		return float64(net.Count(core.Linear, pred)), true
	}),
	aggregateKind(KindSum, "exact", whereInNetwork, func(net aggregator, pred wire.Pred) (float64, bool) {
		return float64(net.Sum(core.Linear, pred)), true
	}),
	aggregateKind(KindAvg, "exact (SUM/COUNT)", whereInNetwork, func(net aggregator, pred wire.Pred) (float64, bool) {
		return net.Average(core.Linear, pred)
	}),
	{name: KindDistinct, tree: true, where: whereFilter, truth: run.distinct, solo: func(r run) (float64, string, error) {
		res, err := distinct.Exact(r.fe)
		return float64(res.Distinct), "exact set union", err
	}},
	{name: KindApxDistinct, tree: true, where: whereFilter, truth: run.distinct, solo: func(r run) (float64, string, error) {
		res, err := distinct.Approximate(r.fe, r.q.SketchP, loglog.EstHLL, r.nw.Seed())
		return res.Estimate, fmt.Sprintf("sketch m=%d, σ=%.3f", 1<<r.q.SketchP, res.Sigma), err
	}},
	// The α-counting instance runs on the plane's own sketch precision
	// (Query.SketchP); the AMS sketch has one fixed shape.
	{name: KindApxCount, tree: true, where: whereInNetwork, truth: run.count, solo: func(r run) (float64, string, error) {
		an := r.net.(*agg.Net) // apxcount never runs robust
		return an.ApxCount(core.Linear, r.pred()), fmt.Sprintf("α-counting instance, σ=%.3f", an.ApxSigma()), nil
	}},
	{name: KindF2, tree: true, where: whereFilter, truth: run.f2, solo: func(r run) (float64, string, error) {
		res, err := ams.F2Protocol(r.fe, 5, 64, r.nw.Seed())
		return res.Estimate, "AMS sketch 5x64, rel. σ ≈ √(2/64)", err
	}},
	{name: KindQDigest, tree: true, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := qdigest.MedianProtocol(r.fe, 16)
		return float64(res.Value), fmt.Sprintf("rank error bound %d", res.RankErrorBound), err
	}},
	{name: KindGK, tree: true, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := gk.MedianProtocol(r.fe, 24)
		return float64(res.Value), fmt.Sprintf("rank gap ≤ %d", res.MaxGap), err
	}},
	{name: KindSampling, tree: true, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := sampling.Median(r.fe, 128, r.nw.Seed())
		return float64(res.Value), fmt.Sprintf("from %d samples", res.SampleSize), err
	}},
	{name: KindGossip, plans: plansNative, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := gossip.Median(r.nw, gossip.Params{})
		return float64(res.Value), fmt.Sprintf("%d push-sum phases", res.Phases), err
	}},
	{name: KindGossipDistinct, plans: plansNative, truth: run.distinct, solo: func(r run) (float64, string, error) {
		res := gossip.Distinct(r.nw, r.q.SketchP, loglog.EstHLL, r.nw.Seed(), gossip.Params{})
		return res.Estimate, fmt.Sprintf("%d gossip rounds", res.Rounds), nil
	}},
	{name: KindCollectAll, tree: true, truth: run.median, solo: func(r run) (float64, string, error) {
		res, err := baseline.CollectAllMedian(r.fe)
		return float64(res.Value), fmt.Sprintf("%d items shipped", res.Items), err
	}},
	{name: KindSingleHop, truth: run.median, solo: func(r run) (float64, string, error) {
		if r.spec.Topology != "complete" {
			return 0, "", fmt.Errorf("engine: singlehop requires topology=complete, got %q", r.spec.Topology)
		}
		res, err := singlehop.Median(r.nw)
		return float64(res.Value), fmt.Sprintf("max transmit %d bits/node, %d radio rounds", res.MaxTransmitBits, res.Rounds), err
	}},
	{name: KindBuildTree, plans: plansNone, truth: run.height, solo: func(r run) (float64, string, error) {
		res, err := spantree.BuildBFS(r.nw)
		if err != nil {
			return 0, "", err
		}
		return float64(res.Tree.Height()), fmt.Sprintf("distributed BFS in %d rounds", res.Rounds), nil
	}},
}

// kindOf returns the entry of the named kind. An unknown name gets a tree
// kind of its own that fails with the unknown-kind error once the run is
// prepared, and rejects what any unfusable tree kind rejects before that.
func kindOf(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return &kind{name: name, tree: true, solo: func(run) (float64, string, error) {
		return 0, "", fmt.Errorf("engine: unknown query kind %q", name)
	}}
}

// Kinds returns every query kind the engine executes, for CLI help.
func Kinds() (names []string) {
	for i := range kinds {
		names = append(names, kinds[i].name)
	}
	return names
}

// run is a unit's prepared state, which a kind's arms answer over: the
// fork, the resolved query an arm answers, the view's engine, the plane and
// the ground truth over its population, the heal that shaped the view, a
// robust run's audit, and the unit's meter snapshot and start.
type run struct {
	nw     *netsim.Network
	spec   Spec
	q      Query
	fe     *spantree.FastEngine
	net    aggregator
	truth  groundTruth
	heal   *spantree.HealResult
	audit  *byz.Report
	before netsim.Snapshot
	start  time.Time
}

// pred is the predicate an in-network kind evaluates: the run's WHERE,
// fitted to the domain, or TRUE.
func (r run) pred() wire.Pred {
	if r.truth.where != nil {
		return *r.truth.where
	}
	return wire.True()
}

// The truths a kind with a private schedule names: its population's
// median, distinct count, size and second frequency moment, and the BFS
// tree's height.
func (r run) median() float64   { return float64(core.TrueMedian(r.truth.sorted())) }
func (r run) distinct() float64 { return float64(r.truth.distinct()) }
func (r run) count() float64    { return float64(r.truth.count()) }
func (r run) f2() float64       { return r.truth.f2() }
func (r run) height() float64   { return float64(topology.BFSTree(r.nw.Graph, 0).Height()) }

// member is one query's slot in a fusion batch, as its kind resolved it:
// either the ranks its SelectStepper narrows (width probes per sweep,
// seeded from its windows — nil or mismatched length → unseeded), or the
// Fact 2.1 aggregates it reads off the shared rounds.
type member struct {
	kind  *kind
	ranks []core.BatchRank
	width int
	seeds []core.SeedWindow
	aggs  []string
}

// slot resolves q's batch slot against a population of n.
func (k *kind) slot(q Query, n uint64) (member, error) {
	m, err := k.member(q, n)
	m.kind = k
	return m, err
}

// selection is a selection kind's slot: ranks narrowed at q's probe width,
// seeded from q's windows. A negative width is an error, the same on every
// path a slot is resolved on (solo, fused, retried).
func selection(q Query, ranks ...core.BatchRank) (member, error) {
	if q.ProbeWidth < 0 {
		return member{}, fmt.Errorf("engine: probe width %d must be >= 0 (0 = the default %d)", q.ProbeWidth, core.DefaultProbeWidth)
	}
	return member{ranks: ranks, width: q.ProbeWidth, seeds: q.SeedWindows}, nil
}

// medianRank is a median slot's one rank, shared read-only by every slot.
var medianRank = []core.BatchRank{{Median: true}}

// rankMember is an order-statistic kind's slot for rank k, its median rank
// ⌈n/2⌉ when k is unset.
func rankMember(q Query, k, n uint64) (member, error) {
	if k == 0 {
		k = (n + 1) / 2
	}
	return selection(q, core.BatchRank{K: k})
}

func rankDetail(m member, shared string) string {
	return fmt.Sprintf("rank %d, %s", m.ranks[0].K, shared)
}

func riderDetail(_ member, shared string) string { return "aggregate rider, " + shared }

// aggregateKind is the entry of a single-aggregate kind, named after the
// one Fact 2.1 aggregate it reads; alone, it answers with protocol over the
// predicate it is handed (the query's in-network WHERE), whose false is the
// network found empty.
func aggregateKind(name, detail string, where whereSupport, protocol func(aggregator, wire.Pred) (float64, bool)) kind {
	aggs := []string{name}
	return kind{name: name, tree: true, robust: true, plans: plansRetry, where: where,
		member:      func(Query, uint64) (member, error) { return member{aggs: aggs}, nil },
		batchDetail: riderDetail,
		alone: func(r run) (memberResult, int, string, error) {
			v, ok := protocol(r.net, r.pred())
			if !ok {
				return memberResult{}, 0, "", errEmptyNetwork
			}
			return memberResult{aggValues: []float64{v}}, 0, detail, nil
		}}
}

var errEmptyNetwork = errors.New("engine: empty network")

// answer writes the member's values and seeding from its result mr (a
// selection member's order statistics or an aggregate member's answers, in
// member order) into res, with each value's truth over g's population. A
// nil g claims no truth — a degraded answer's population no longer exists.
func (m *member) answer(res *Result, mr *memberResult, g *groundTruth) {
	n := len(m.ranks) + len(m.aggs)
	if m.kind.vector {
		res.Values = make([]float64, n)
		if g != nil {
			res.Truths = make([]float64, n)
		}
	}
	for i := n - 1; i >= 0; i-- { // entry 0 last: Value and Truth hold it
		if len(m.ranks) > 0 {
			res.Value = float64(mr.values[i])
		} else {
			res.Value = mr.aggValues[i]
		}
		if g != nil {
			res.Truth, res.TruthKnown = m.truth(i, g), true
		}
		if res.Values != nil {
			res.Values[i] = res.Value
		}
		if res.Truths != nil {
			res.Truths[i] = res.Truth
		}
	}
	res.SeededSweeps, res.SeedHit = mr.seededSweeps, mr.seedHit
}

// truth is the ground truth of the member's i-th value over g's population.
func (m *member) truth(i int, g *groundTruth) float64 {
	if len(m.ranks) == 0 {
		return g.aggregate(m.aggs[i])
	}
	switch r := m.ranks[i]; {
	case r.Median:
		return float64(core.TrueMedian(g.sorted()))
	case r.Phi > 0:
		return float64(core.TrueOrderStatistic(g.sorted(), int(core.QuantileRank(r.Phi, g.count()))))
	default:
		return float64(core.TrueOrderStatistic(g.sorted(), int(r.K)))
	}
}
