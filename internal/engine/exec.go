package engine

import (
	"fmt"
	"slices"
	"sync"

	"sensoragg/internal/agg"
	"sensoragg/internal/baseline"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/gk"
	"sensoragg/internal/gossip"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/qdigest"
	"sensoragg/internal/query"
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
	KindStatement      = "statement"
	// KindQuantiles answers every quantile in Query.Phis with one shared
	// k-ary probe schedule (core.SelectRanksBatched).
	KindQuantiles = "quantiles"
	// KindFused answers COUNT+SUM+MIN+MAX (Query.Aggs) with one fused
	// vector sweep instead of one sweep per aggregate.
	KindFused = "fused"
)

// Query is one aggregate query specification.
type Query struct {
	// Kind selects the protocol (Kind* constants).
	Kind string `json:"kind"`
	// K is the rank for order-statistic queries (0 → ⌈N/2⌉).
	K uint64 `json:"k,omitempty"`
	// Phi is the quantile in (0,1] for KindQuantile.
	Phi float64 `json:"phi,omitempty"`
	// Eps is the failure probability for randomized queries (0 → 0.25).
	Eps float64 `json:"eps,omitempty"`
	// Beta is the precision for apxmedian2 (0 → 1/64).
	Beta float64 `json:"beta,omitempty"`
	// SketchP is the LogLog register exponent (0 → core.DefaultSketchP).
	SketchP int `json:"sketch_p,omitempty"`
	// Statement is a sensorql statement, used when Kind == "statement".
	Statement string `json:"statement,omitempty"`
	// ProbeWidth is the number of COUNT probes batched per CountVec sweep
	// in the selection queries (median/os/quantile/quantiles): 0 means the
	// engine default (core.DefaultProbeWidth), 1 runs the classic
	// one-probe-per-sweep binary search — the unbatched reference path.
	ProbeWidth int `json:"probe_width,omitempty"`
	// Phis are the quantile fractions for KindQuantiles, each in (0,1].
	Phis []float64 `json:"phis,omitempty"`
	// Aggs selects the aggregates KindFused reports, a subset of
	// count|sum|min|max|avg; empty means count,sum,min,max.
	Aggs []string `json:"aggs,omitempty"`
	// SeedWindows are delta-narrowing hints for the selection kinds, one
	// per requested rank in order (a single window for median/os/quantile,
	// one per phi for quantiles; a length mismatch is ignored). A window
	// biases the probe schedule toward where the answer was last epoch —
	// it never changes the answer; see core.SeedWindow.
	SeedWindows []core.SeedWindow `json:"seed_windows,omitempty"`
	// Robust runs the query on the Byzantine-robust tier (internal/byz):
	// under an adversarial fault plan the engine first localizes and
	// quarantines lying subtrees via challenge audits, then aggregates
	// per root-child sector with trimmed partials, and the Result carries
	// suspected/quarantined counts and an integrity bound. With no
	// adversary the robust answer is value-identical to the plain one.
	// Supported for the exact aggregate kinds
	// (median/os/quantile/quantiles/count/sum/min/max/avg/fused).
	Robust bool `json:"robust,omitempty"`
}

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
	if q.Kind == KindStatement {
		return fmt.Sprintf("statement(%s)", q.Statement)
	}
	return q.Kind
}

// answer is what one protocol run produced, before metering is attached.
type answer struct {
	value      float64
	detail     string
	truth      float64
	truthKnown bool
	// values/truths carry the full result vector of multi-valued kinds
	// (quantiles, fused); value/truth then hold the first entry.
	values []float64
	truths []float64
	// heal is the self-healing repair run that preceded the query, when
	// the run's fault plan had structural faults.
	heal *spantree.HealResult
	// sweeps is the number of probe sweeps in the plane that answered the
	// query (selection and fused-aggregate kinds); surfaces as
	// Result.SharedSweeps.
	sweeps int
	// seededSweeps/seedHit report the delta-narrowing outcome of a seeded
	// selection; surface as Result.SeededSweeps/SeedHit.
	seededSweeps int
	seedHit      bool
	// retries/degraded/survivorFrac report a phased fault plan's mid-flight
	// retry outcome; surface as Result.Retries/Degraded/SurvivorFrac.
	retries      int
	degraded     bool
	survivorFrac float64
	// robust carries the byz tier's outcome for a Query.Robust run: the
	// localization report (nil when no adversary was planned) and the
	// aggregation plane's integrity accounting.
	robust *robustInfo
}

// robustInfo is the byz-tier outcome attached to a robust answer.
type robustInfo struct {
	rep       *byz.Report
	integrity byz.Integrity
}

// execute runs q against the per-run network nw. The network must be
// private to this run: execute mutates node items (zoom/filter stages) and
// charges the meter freely.
//
// A spec with an active fault plan reshapes the run: the plan is attached
// to the network (forked from the run seed unless the session already
// attached one), structural faults trigger a spantree.Heal repair whose
// traffic is charged to the meter before the query runs, and the
// simulator-side ground truth shrinks to the surviving, reconnected nodes
// — the population the healed tree can actually aggregate. aud is the byz
// audit a robust job shares with others of its Submit (nil: none).
func (e *Engine) execute(nw *netsim.Network, spec Spec, q Query, aud *auditOnce) (answer, error) {
	q = q.WithDefaults()

	if spec.Faults.Active() && nw.Faults == nil {
		if err := spec.Faults.Validate(); err != nil {
			return answer{}, err
		}
		nw.Faults = faults.New(spec.Faults, nw.N(), nw.Root(), nw.Seed())
	}
	if p := nw.Faults; p != nil && p.Active() {
		if err := faultSupport(q.Kind, p.Spec()); err != nil {
			return answer{}, err
		}
		if p.Spec().Phased() && q.Robust {
			return answer{}, fmt.Errorf("engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)")
		}
	}

	var fe *spantree.FastEngine
	var heal *spantree.HealResult
	if usesTree(q.Kind) {
		var err error
		if fe, heal, err = spantree.NewFastHealed(nw); err != nil {
			return answer{}, err
		}
	} else {
		// Gossip/radio kinds never touch the tree: no repair runs, so their
		// cost is purely the protocol's own traffic.
		fe = spantree.NewFast(nw)
	}
	fe.SetWorkers(e.treeWorkers)
	truth := &groundTruth{nw: nw, view: fe.View()}
	// A fusable tree query under a phased fault plan runs as a resilient
	// batch of one: the detect → re-heal → resume loop in retry.go, with
	// the same degradation contract as a fused batch. Unfusable parameters
	// fall through to report their standard errors.
	if p := nw.Faults; p != nil && p.PhaseArmed() && !q.Robust && fusableKind(q.Kind) {
		if ans, ok, err := e.executeResilientSolo(nw, spec, q, fe, heal, truth); ok {
			return ans, err
		}
	}
	if q.Robust {
		return executeRobust(nw, spec, q, fe, heal, truth, aud)
	}
	net := agg.NewNet(fe, agg.WithSketchP(q.SketchP))
	ans, err := executeKind(nw, spec, q, fe, net, truth)
	if err != nil {
		return answer{}, err
	}
	ans.heal = heal
	return ans, nil
}

// executeRobust runs a Query.Robust job on the byz tier: localize and
// quarantine lying subtrees (adversarial plans only — the audit protocol
// costs traffic, so honest runs skip it), re-derive the execution view and
// ground truth, cross-check the trimmed plane against the
// duplicate-insensitive sketch, and dispatch the kind over a RobustNet.
func executeRobust(nw *netsim.Network, spec Spec, q Query, fe *spantree.FastEngine, heal *spantree.HealResult, truth *groundTruth, aud *auditOnce) (answer, error) {
	if !robustKind(q.Kind) {
		return answer{}, fmt.Errorf("engine: %s does not support robust mode (exact aggregate kinds only)", q.Kind)
	}
	view := fe.View()
	plan := nw.Faults
	adversarial := plan != nil && plan.Adversarial()
	var rep *byz.Report
	if adversarial {
		var err error
		rep, view, err = aud.localize(nw, view)
		if err != nil {
			return answer{}, err
		}
		if rep.Healed != nil {
			heal = rep.Healed
			truth = &groundTruth{nw: nw, view: view}
		}
	}
	rnet := byz.NewRobustNet(nw, view, byz.WithSketchP(q.SketchP))
	if adversarial {
		rnet.CrossCheck()
	}
	ans, err := executeKind(nw, spec, q, fe, rnet, truth)
	if err != nil {
		return answer{}, err
	}
	ans.heal = heal
	ans.robust = &robustInfo{rep: rep, integrity: rnet.Integrity()}
	if sk := obs.Active(); sk != nil {
		obsRobust(sk, ans.robust)
	}
	return ans, nil
}

// auditOnce is the byz audit the robust jobs of one Submit share when they
// agree on fuseKey — same deployment, fault plan, run seed and overlay make
// byz.Localize the same function on each fork. It lives for that call only.
type auditOnce struct {
	once sync.Once
	out  *byz.Outcome
	err  error
}

// planAudits gives every robust job that has a partner in jobs their
// group's auditOnce, by job index; a job without one audits alone. Groups
// are few (one per deployment and epoch), so they are found by scanning.
func planAudits(jobs []Job) map[int]*auditOnce {
	var audits map[int]*auditOnce
	keys, first := make([]fuseKey, 0, 8), make([]int, 0, 8) // per group: its key, its first job
	for i := range jobs {
		if !jobs[i].Query.Robust || jobs[i].Spec.Faults.Byz <= 0 {
			continue
		}
		key := fuseKey{spec: jobs[i].Spec.Normalize(), seed: jobs[i].runSeed(), overlay: jobs[i].Overlay}
		g := slices.Index(keys, key)
		if g < 0 {
			keys, first = append(keys, key), append(first, i)
			continue
		}
		if audits == nil {
			audits = make(map[int]*auditOnce)
		}
		if audits[first[g]] == nil {
			audits[first[g]] = new(auditOnce)
		}
		audits[i] = audits[first[g]]
	}
	return audits
}

// localize is byz.Localize for a job on its own fork nw. The group's first
// caller runs the audit and records the outcome; every other caller waits
// for the record and fast-forwards its fork to it — the state its own audit
// would have left, its meter paying for the audit in full. A failed or
// panicking first caller fails the rest with its error. Without a group, and
// on a watched meter (a replay bypasses the watched edge), the job audits.
func (a *auditOnce) localize(nw *netsim.Network, view *spantree.TreeView) (*byz.Report, *spantree.TreeView, error) {
	if a == nil || nw.Meter.Watching() {
		return byz.Localize(nw, view)
	}
	first := false
	a.once.Do(func() {
		first = true
		defer func() {
			if r := recover(); r != nil {
				a.err = fmt.Errorf("engine: query panicked: %v", r)
				panic(r)
			}
		}()
		a.out, a.err = byz.Record(nw, view)
	})
	if a.err != nil {
		return nil, nil, a.err
	}
	if !first {
		a.out.Replay(nw)
	}
	return a.out.Report, a.out.View, nil
}

// robustKind reports whether a query kind can run on the trimmed
// sector-split plane: the exact aggregates whose primitives RobustNet
// reproduces. The sketch, digest, gossip, and radio families have no
// trimmed variant (the duplicate-insensitive sketches are the byz tier's
// own cross-check layer), and statements compile to plans that may zoom
// or filter, which the capacity model does not track.
func robustKind(kind string) bool {
	switch kind {
	case KindMedian, KindOrderStat, KindQuantile, KindQuantiles,
		KindCount, KindSum, KindMin, KindMax, KindAvg, KindFused:
		return true
	}
	return false
}

// usesTree reports whether a query kind executes over the spanning tree
// (and therefore needs the self-healing repair under structural faults).
// The gossip and radio kinds run directly on the graph, and buildtree
// constructs the tree itself.
func usesTree(kind string) bool {
	switch kind {
	case KindGossip, KindGossipDistinct, KindSingleHop, KindBuildTree:
		return false
	}
	return true
}

// faultSupport rejects fault-plan/kind combinations the engine cannot
// execute honestly, with an explanation instead of a downstream protocol
// error. Tree kinds support everything (structural faults heal first);
// the graph-level gossip/radio kinds take message faults at the netsim
// boundary but have no repair story for crashes or dead links yet; the
// distributed tree construction assumes the full node set.
func faultSupport(kind string, fs faults.Spec) error {
	if kind == KindBuildTree {
		return fmt.Errorf("engine: buildtree does not support fault plans (the construction protocol assumes the full node set)")
	}
	if !usesTree(kind) && fs.Structural() {
		return fmt.Errorf("engine: %s does not support structural faults (crash/linkfail) — only tree queries self-heal; message faults (drop/dup) are fine", kind)
	}
	if fs.Phased() {
		switch {
		case kind == KindGossip || kind == KindGossipDistinct:
			// Gossip takes the mid-round fault natively: the epidemic
			// protocol keeps running over the survivors past the fire and
			// degrades gracefully without any retry machinery.
		case fusableKind(kind):
			// The exact selection/aggregate tree kinds detect the
			// incomplete sweep, re-heal, and resume (see retry.go).
		default:
			return fmt.Errorf("engine: %s does not support phased (mid-sweep) fault plans — only the exact selection/aggregate tree kinds retry, and the gossip kinds degrade natively", kind)
		}
	}
	return nil
}

// aggregator is the primitive-protocol surface executeKind dispatches
// over: *agg.Net provides it directly, and *byz.RobustNet provides the
// trimmed sector-split variant for robust queries.
type aggregator interface {
	core.Net
	Sum(core.Domain, wire.Pred) uint64
	Min(core.Domain) (uint64, bool)
	Max(core.Domain) (uint64, bool)
	Average(core.Domain, wire.Pred) (float64, bool)
	MultiAggregate(core.Domain, wire.Pred) (count, sum, lo, hi uint64, ok bool)
}

var (
	_ aggregator = (*agg.Net)(nil)
	_ aggregator = (*byz.RobustNet)(nil)
)

// executeKind dispatches the query kind over the prepared execution state;
// only the order-statistic and distinct truths sort the population.
func executeKind(nw *netsim.Network, spec Spec, q Query, ops spantree.Ops, net aggregator, truth *groundTruth) (answer, error) {
	sorted := truth.sorted
	exactUint := func(v uint64, detail string, truth uint64) answer {
		return answer{value: float64(v), detail: detail, truth: float64(truth), truthKnown: true}
	}

	// seedAns transfers a seeded batch's delta-narrowing outcome onto the
	// assembled answer.
	seedAns := func(ans answer, res core.BatchResult) answer {
		ans.sweeps = res.Sweeps
		ans.seededSweeps = res.SeededSweeps
		ans.seedHit = res.SeedHit
		return ans
	}

	switch q.Kind {
	case KindMedian:
		if q.ProbeWidth > 1 {
			res, err := core.SelectRanksSeeded(net, []core.BatchRank{{Median: true}}, q.ProbeWidth, q.SeedWindows)
			if err != nil {
				return answer{}, err
			}
			return seedAns(exactUint(res.Values[0],
				fmt.Sprintf("%d k-ary sweeps (width %d)", res.Sweeps, q.ProbeWidth),
				core.TrueMedian(sorted())), res), nil
		}
		res, err := core.Median(net)
		if err != nil {
			return answer{}, err
		}
		ans := exactUint(res.Value, fmt.Sprintf("%d binary-search iterations", res.Iterations), core.TrueMedian(sorted()))
		ans.sweeps = res.CountCalls
		return ans, nil

	case KindOrderStat, KindQuantile:
		k := q.K
		if q.Kind == KindQuantile {
			if q.Phi <= 0 || q.Phi > 1 {
				return answer{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", q.Phi)
			}
			k = core.QuantileRank(q.Phi, truth.count())
		}
		if k == 0 {
			k = (truth.count() + 1) / 2
		}
		if q.ProbeWidth > 1 {
			res, err := core.SelectRanksSeeded(net, []core.BatchRank{{K: k}}, q.ProbeWidth, q.SeedWindows)
			if err != nil {
				return answer{}, err
			}
			return seedAns(exactUint(res.Values[0],
				fmt.Sprintf("rank %d, %d k-ary sweeps (width %d)", k, res.Sweeps, q.ProbeWidth),
				core.TrueOrderStatistic(sorted(), int(k))), res), nil
		}
		res, err := core.OrderStatistic(net, k)
		if err != nil {
			return answer{}, err
		}
		ans := exactUint(res.Value, fmt.Sprintf("rank %d", k), core.TrueOrderStatistic(sorted(), int(k)))
		ans.sweeps = res.CountCalls
		return ans, nil

	case KindQuantiles:
		if len(q.Phis) == 0 {
			return answer{}, fmt.Errorf("engine: quantiles requires at least one phi")
		}
		// Ranks are φ-resolved against the protocol-counted N inside the
		// search (folded into the first sweep), so the kind degrades under
		// message faults exactly like median does: a corrupted count skews
		// the answer instead of tripping a rank-vs-population mismatch.
		ranks := make([]core.BatchRank, len(q.Phis))
		for i, phi := range q.Phis {
			if phi <= 0 || phi > 1 {
				return answer{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", phi)
			}
			ranks[i] = core.BatchRank{Phi: phi}
		}
		res, err := core.SelectRanksSeeded(net, ranks, q.ProbeWidth, q.SeedWindows)
		if err != nil {
			return answer{}, err
		}
		ans := answer{
			detail: fmt.Sprintf("%d quantiles in %d shared k-ary sweeps (width %d)",
				len(q.Phis), res.Sweeps, q.ProbeWidth),
			truthKnown:   true,
			sweeps:       res.Sweeps,
			seededSweeps: res.SeededSweeps,
			seedHit:      res.SeedHit,
		}
		for i, v := range res.Values {
			k := core.QuantileRank(q.Phis[i], truth.count())
			ans.values = append(ans.values, float64(v))
			ans.truths = append(ans.truths, float64(core.TrueOrderStatistic(sorted(), int(k))))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
		return ans, nil

	case KindFused:
		count, sum, lo, hi, ok := net.MultiAggregate(core.Linear, wire.True())
		if !ok {
			return answer{}, fmt.Errorf("engine: empty network")
		}
		got := map[string]float64{
			"count": float64(count), "sum": float64(sum),
			"min": float64(lo), "max": float64(hi),
			"avg": float64(sum) / float64(count),
		}
		ans := answer{detail: "fused vector sweep (count+sum+min+max)", truthKnown: true, sweeps: 1}
		for _, a := range q.Aggs {
			v, known := got[a]
			if !known {
				return answer{}, fmt.Errorf("engine: unknown fused aggregate %q (count|sum|min|max|avg)", a)
			}
			ans.values = append(ans.values, v)
			ans.truths = append(ans.truths, truth.aggregate(a))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
		return ans, nil

	case KindApxMedian:
		res, err := core.ApxMedian(net, core.ApxParams{Epsilon: q.Eps})
		if err != nil {
			return answer{}, err
		}
		return answer{
			value:      float64(res.Value),
			detail:     fmt.Sprintf("%d α-counting instances, halted early: %v", res.Instances, res.HaltedEarly),
			truth:      float64(core.TrueMedian(sorted())),
			truthKnown: true,
		}, nil

	case KindApxMedian2:
		res, err := core.ApxMedian2(net, core.Apx2Params{Beta: q.Beta, Epsilon: q.Eps})
		if err != nil {
			return answer{}, err
		}
		return answer{
			value:      float64(res.Value),
			detail:     fmt.Sprintf("%d zoom stages, %d instances", res.Stages, res.Instances),
			truth:      float64(core.TrueMedian(sorted())),
			truthKnown: true,
		}, nil

	case KindMin:
		v, ok := net.Min(core.Linear)
		if !ok {
			return answer{}, fmt.Errorf("engine: empty network")
		}
		return exactUint(v, "exact", truth.totals().lo), nil

	case KindMax:
		v, ok := net.Max(core.Linear)
		if !ok {
			return answer{}, fmt.Errorf("engine: empty network")
		}
		return exactUint(v, "exact", truth.totals().hi), nil

	case KindCount:
		return exactUint(net.Count(core.Linear, wire.True()), "exact", truth.count()), nil

	case KindSum:
		return answer{value: float64(net.Sum(core.Linear, wire.True())), detail: "exact", truth: truth.aggregate("sum"), truthKnown: true}, nil

	case KindAvg:
		v, ok := net.Average(core.Linear, wire.True())
		if !ok {
			return answer{}, fmt.Errorf("engine: empty network")
		}
		return answer{value: v, detail: "exact (SUM/COUNT)", truth: truth.aggregate("avg"), truthKnown: true}, nil

	case KindDistinct:
		res, err := distinct.Exact(ops)
		if err != nil {
			return answer{}, err
		}
		return exactUint(uint64(res.Distinct), "exact set union", truth.distinct()), nil

	case KindApxDistinct:
		res, err := distinct.Approximate(ops, q.SketchP, loglog.EstHLL, nw.Seed())
		if err != nil {
			return answer{}, err
		}
		return answer{
			value:      res.Estimate,
			detail:     fmt.Sprintf("sketch m=%d, σ=%.3f", 1<<q.SketchP, res.Sigma),
			truth:      float64(truth.distinct()),
			truthKnown: true,
		}, nil

	case KindQDigest:
		res, err := qdigest.MedianProtocol(ops, 16)
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("rank error bound %d", res.RankErrorBound), core.TrueMedian(sorted())), nil

	case KindGK:
		res, err := gk.MedianProtocol(ops, 24)
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("rank gap ≤ %d", res.MaxGap), core.TrueMedian(sorted())), nil

	case KindSampling:
		res, err := sampling.Median(ops, 128, nw.Seed())
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("from %d samples", res.SampleSize), core.TrueMedian(sorted())), nil

	case KindGossip:
		res, err := gossip.Median(nw, gossip.Params{})
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("%d push-sum phases", res.Phases), core.TrueMedian(sorted())), nil

	case KindGossipDistinct:
		res := gossip.Distinct(nw, q.SketchP, loglog.EstHLL, nw.Seed(), gossip.Params{})
		return answer{
			value:      res.Estimate,
			detail:     fmt.Sprintf("%d gossip rounds", res.Rounds),
			truth:      float64(truth.distinct()),
			truthKnown: true,
		}, nil

	case KindCollectAll:
		res, err := baseline.CollectAllMedian(ops)
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("%d items shipped", res.Items), core.TrueMedian(sorted())), nil

	case KindSingleHop:
		if spec.Topology != "complete" {
			return answer{}, fmt.Errorf("engine: singlehop requires topology=complete, got %q", spec.Topology)
		}
		res, err := singlehop.Median(nw)
		if err != nil {
			return answer{}, err
		}
		return exactUint(res.Value,
			fmt.Sprintf("max transmit %d bits/node, %d radio rounds", res.MaxTransmitBits, res.Rounds),
			core.TrueMedian(sorted())), nil

	case KindBuildTree:
		res, err := spantree.BuildBFS(nw)
		if err != nil {
			return answer{}, err
		}
		return answer{
			value:      float64(res.Tree.Height()),
			detail:     fmt.Sprintf("distributed BFS in %d rounds", res.Rounds),
			truth:      float64(topology.BFSTree(nw.Graph, 0).Height()),
			truthKnown: true,
		}, nil

	case KindStatement:
		an, ok := net.(*agg.Net)
		if !ok {
			return answer{}, fmt.Errorf("engine: statements do not support robust mode")
		}
		res, err := query.Exec(an, q.Statement)
		if err != nil {
			return answer{}, err
		}
		return answer{value: res.Value, detail: res.Detail, values: res.Values}, nil

	default:
		return answer{}, fmt.Errorf("engine: unknown query kind %q", q.Kind)
	}
}

// Kinds returns every query kind the engine executes, for CLI help.
func Kinds() []string {
	return []string{
		KindMedian, KindOrderStat, KindQuantile, KindQuantiles, KindFused,
		KindApxMedian, KindApxMedian2,
		KindMin, KindMax, KindCount, KindSum, KindAvg,
		KindDistinct, KindApxDistinct, KindQDigest, KindGK, KindSampling,
		KindGossip, KindGossipDistinct, KindCollectAll, KindSingleHop,
		KindBuildTree, KindStatement,
	}
}
