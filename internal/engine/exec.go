package engine

import (
	"fmt"
	"sync"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
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
	// Where restricts the query to the items the predicate matches (a
	// sensorql WHERE clause); nil means every item. count, sum, avg and
	// apxcount evaluate it in-network; min, max, the selection kinds,
	// distinct, apxdistinct and f2 broadcast it as a filter first. Every
	// other kind, robust mode and a phased fault plan reject it, and a
	// query with a predicate never fuses.
	Where *wire.Pred `json:"where,omitempty"`
	// ProbeWidth is the number of COUNT probes batched per CountVec sweep
	// in the selection queries (median/os/quantile/quantiles): 0 means the
	// engine default (core.DefaultProbeWidth), 1 runs the paper's Fig. 1
	// search less its already-answered probes, on every path. A negative
	// width is rejected.
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

// RobustCapable reports whether q can run on the robust tier: an exact
// selection or aggregate kind without a WHERE clause. A service that runs
// queries robust by default stamps Robust only where this holds.
func (q Query) RobustCapable() bool { return kindOf(q.Kind).robust && q.Where == nil }

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
// A spec with an active fault plan reshapes the run: the plan attached to
// the network (Session.Instantiate forks it from the run seed) is checked
// against the kind, structural faults trigger a spantree.Heal repair whose
// traffic is charged to the meter before the query runs, and the
// simulator-side ground truth shrinks to the surviving, reconnected nodes
// — the population the healed tree can actually aggregate. aud is the byz
// audit a robust job shares with others of its Submit (nil: none).
func (e *Engine) execute(nw *netsim.Network, spec Spec, q Query, aud *auditOnce) (answer, error) {
	q = q.WithDefaults()
	k := kindOf(q.Kind)
	if q.Where != nil {
		where, err := k.whereFor(q, nw.MaxX)
		if err != nil {
			return answer{}, err
		}
		q.Where = &where
	}

	if p := nw.Faults; p != nil && p.Active() {
		if err := k.faultSupport(p.Spec()); err != nil {
			return answer{}, err
		}
		if p.Spec().Phased() && q.Robust {
			return answer{}, fmt.Errorf("engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)")
		}
		if p.Spec().Phased() && q.Where != nil {
			return answer{}, fmt.Errorf("engine: WHERE does not support phased (mid-sweep) fault plans — the mid-sweep retry loop does not carry a predicate")
		}
	}

	r := &run{nw: nw, spec: spec, q: q}
	var heal *spantree.HealResult
	if k.tree {
		var err error
		if r.fe, heal, err = spantree.NewFastHealed(nw); err != nil {
			return answer{}, err
		}
	} else {
		// Gossip/radio kinds never touch the tree: no repair runs, so their
		// cost is purely the protocol's own traffic.
		r.fe = spantree.NewFast(nw)
	}
	r.fe.SetWorkers(e.treeWorkers)
	r.truth = groundTruth{nw: nw, view: r.fe.View(), where: q.Where}
	// A fusable query under a phased fault plan runs as a batch of one: the
	// batch driver's detect → re-heal → resume loop (retry.go), with the
	// same degradation contract as a fused batch.
	if p := nw.Faults; p != nil && p.PhaseArmed() && !q.Robust && k.member != nil {
		return e.retrySolo(r, k, heal)
	}
	if q.Robust {
		return executeRobust(r, k, heal, aud)
	}
	net := agg.NewNet(r.fe, agg.WithSketchP(q.SketchP))
	if q.Where != nil && k.where == whereFilter {
		net.Filter(*q.Where)
		defer net.Reset()
	}
	r.net = net
	ans, err := k.runSolo(r)
	if err != nil {
		return answer{}, err
	}
	ans.heal = heal
	return ans, nil
}

// executeRobust runs a Query.Robust job on the byz tier: localize and
// quarantine lying subtrees and cross-check the trimmed plane against the
// duplicate-insensitive sketch, re-derive the execution view and ground
// truth, and answer the kind over the RobustNet.
func executeRobust(r *run, k *kind, heal *spantree.HealResult, aud *auditOnce) (answer, error) {
	if !k.robust {
		return answer{}, fmt.Errorf("engine: %s does not support robust mode (exact aggregate kinds only)", k.name)
	}
	rep, rnet, err := aud.localize(r.nw, r.fe.View(), r.q.SketchP)
	if err != nil {
		return answer{}, err
	}
	if rep != nil && rep.Healed != nil {
		heal = rep.Healed
		r.truth = groundTruth{nw: r.nw, view: rep.Healed.View}
	}
	r.net = rnet
	ans, err := k.runSolo(r)
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

// auditOnce is the byz audit and cross-check the robust jobs of one Submit
// share when they agree on fuseKey and sketch precision: the same
// deployment, fault plan, run seed and overlay make byz.Localize the same on
// each fork, and the sketch precision fixes the cross-check. It lives for
// that call only.
type auditOnce struct {
	once sync.Once
	out  *byz.Outcome
	err  error
}

// localize returns the RobustNet at sketch precision p over a job's own fork
// nw, audited and cross-checked under an adversarial plan (both cost traffic:
// honest runs skip them, and the report is nil). The group's first caller
// records the audit and the cross-check; every other caller waits for the
// record and fast-forwards its fork to it, its meter paying for both in full.
// A failed or panicking first caller fails the rest with its error. A job
// without a group runs both itself, and so does one on a watched meter (a
// replay bypasses the watched edge) or under drop/dup (the cross-check's
// sketch fold draws the plan's per-sender message counters, which a replay
// does not restore).
func (a *auditOnce) localize(nw *netsim.Network, view *spantree.TreeView, p int) (*byz.Report, *byz.RobustNet, error) {
	if nw.Faults == nil || !nw.Faults.Adversarial() {
		return nil, byz.NewRobustNet(nw, view, byz.WithSketchP(p)), nil
	}
	if a == nil || nw.Meter.Watching() || nw.Faults.Spec().MessageLevel() {
		rep, view, err := byz.Localize(nw, view)
		if err != nil {
			return nil, nil, err
		}
		rnet := byz.NewRobustNet(nw, view, byz.WithSketchP(p))
		rnet.CrossCheck()
		return rep, rnet, nil
	}
	var rnet *byz.RobustNet
	a.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				a.err = fmt.Errorf("engine: query panicked: %v", r)
				panic(r)
			}
		}()
		a.out, rnet, a.err = byz.Record(nw, view, byz.WithSketchP(p))
	})
	if a.err != nil {
		return nil, nil, a.err
	}
	if rnet == nil {
		rnet = a.out.Replay(nw, byz.WithSketchP(p))
	}
	return a.out.Report, rnet, nil
}

// aggregator is the primitive-protocol surface a solo run's kind answers
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
