package engine

import (
	"fmt"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
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

// prepare readies r, a metered fork, for its unit: r's query's kind vets
// its WHERE (fitted to the domain) and the fork's fault plan, a tree kind
// heals around structural faults (the repair charged to the meter), and the
// ground truth covers the surviving, reconnected nodes. The plane is an
// agg.Net on a tree-kernel team of the given size, a filter-kind WHERE
// broadcast first, or a robust query's RobustNet: lying subtrees
// quarantined (Session.audit) and the view and truth re-derived.
func (e *Engine) prepare(r *run, team int) error {
	q, k := r.q, kindOf(r.q.Kind)
	var where *wire.Pred
	if q.Where != nil {
		w, err := k.whereFor(q, r.nw.MaxX)
		if err != nil {
			return err
		}
		where = &w
	}
	if p := r.nw.Faults; p != nil && p.Active() {
		if err := k.faultSupport(p.Spec()); err != nil {
			return err
		}
		if p.Spec().Phased() && q.Robust {
			return fmt.Errorf("engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)")
		}
		if p.Spec().Phased() && q.Where != nil {
			return fmt.Errorf("engine: WHERE does not support phased (mid-sweep) fault plans — the mid-sweep retry loop does not carry a predicate")
		}
	}

	if k.tree {
		var err error
		if r.fe, r.heal, err = spantree.NewFastHealed(r.nw); err != nil {
			return err
		}
	} else {
		// Gossip/radio kinds never touch the tree: no repair runs, so their
		// cost is purely the protocol's own traffic.
		r.fe = spantree.NewFast(r.nw)
	}
	r.fe.SetWorkers(team)
	r.truth = groundTruth{nw: r.nw, view: r.fe.View(), where: where}
	if !q.Robust {
		net := agg.NewNet(r.fe, agg.WithSketchP(q.SketchP))
		if where != nil && k.where == whereFilter {
			net.Filter(*where)
		}
		r.net = net
		return nil
	}
	if !k.robust {
		return fmt.Errorf("engine: %s does not support robust mode (exact aggregate kinds only)", k.name)
	}
	rep, rnet, err := e.session.audit(r.nw, r.spec, r.fe.View(), q.SketchP)
	if err != nil {
		return err
	}
	if rep != nil && rep.Healed != nil {
		r.heal = rep.Healed
		r.truth = groundTruth{nw: r.nw, view: rep.Healed.View}
	}
	r.net, r.audit = rnet, rep
	return nil
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
