package main

import (
	"errors"
	"fmt"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// The replay is the ladder's lowest rung: it executes one unit of an op —
// one solo job, or one fusion batch — by calling the layers below the
// engine directly (netsim fork pool, faults, spantree, byz, agg, core),
// every call inside a span. The engine does exactly this work between
// Submit and the result, plus its own (dispatch, ground truth, result
// assembly), so Submit minus the replay is the engine's self time and the
// replay's spans split the rest by layer. Each replay's answers and
// bits/node are compared with the engine's for the same inputs: a replay
// that drifts from what the engine does fails the traced run.

// unitInput is what one unit of an op received.
type unitInput struct {
	queries []engine.Query // the unit's members, defaults resolved
	runSeed uint64
	overlay []uint64 // nil: the deployment's own values
}

// unitOutput is what the replay produced for it.
type unitOutput struct {
	answers     [][]float64
	bitsPerNode int64
	sweeps      int
}

// deployment holds the shared, immutable parts the replay forks from — the
// same template the engine's session caches, with a fork pool of its own.
type deployment struct {
	spec engine.Spec
	pool *netsim.ForkPool
}

func newDeployment(sess *engine.Session, spec engine.Spec) (*deployment, error) {
	tpl, err := sess.Template(spec)
	if err != nil {
		return nil, err
	}
	return &deployment{spec: spec, pool: netsim.NewForkPool(tpl)}, nil
}

// fork checks a run network out of the pool and attaches the run's fault
// plan — the two halves of engine.Session.Instantiate.
func (d *deployment) fork(tr *tracer, runSeed uint64) *netsim.Network {
	var nw *netsim.Network
	tr.do("netsim.fork", func() { nw = d.pool.Get(runSeed) })
	if d.spec.Faults.Active() {
		tr.do("faults.plan_new", func() {
			nw.Faults = faults.New(d.spec.Faults, nw.N(), nw.Root(), runSeed)
		})
	}
	return nw
}

// applyOverlay writes an epoch's values into the forked network, as the
// engine does for a Job.Overlay.
func applyOverlay(nw *netsim.Network, values []uint64) {
	k := 0
	for _, nd := range nw.Nodes {
		for i := range nd.Items {
			v := min(values[k], nw.MaxX)
			k++
			nd.Items[i].Orig, nd.Items[i].Cur, nd.Items[i].Active = v, v, true
		}
	}
}

// population counts the items the view covers: the N that quantile ranks of
// a fusion batch resolve against.
func population(nw *netsim.Network, view *spantree.TreeView) int {
	n := 0
	for _, nd := range nw.Nodes {
		if view.Includes(nd.ID) {
			n += len(nd.Items)
		}
	}
	return n
}

// replayUnit executes one unit below the engine.
func replayUnit(tr *tracer, d *deployment, in unitInput, fused bool) (out unitOutput, err error) {
	runSeed := in.runSeed
	if runSeed == 0 {
		runSeed = d.spec.Seed
	}
	nw := d.fork(tr, runSeed)
	if in.overlay != nil {
		tr.do("engine.overlay", func() { applyOverlay(nw, in.overlay) })
	}
	var before netsim.Snapshot
	tr.do("netsim.meter", func() { before = nw.Meter.Snapshot() })

	var fe *spantree.FastEngine
	name := "spantree.newfast"
	if d.spec.Faults.Structural() {
		name = "spantree.heal"
	}
	tr.do(name, func() { fe, _, err = spantree.NewFastHealed(nw) })
	if err != nil {
		return out, err
	}

	switch {
	case fused:
		out, err = replayPlane(tr, d.spec, nw, fe, in.queries)
	case in.queries[0].Robust:
		out, err = replayRobust(tr, nw, fe, in.queries[0])
	default:
		net := agg.NewNet(fe)
		out, err = replaySolo(tr, &timedNet{tr: tr, inner: net, names: aggNames}, net, in.queries[0])
	}
	if err != nil {
		return out, err
	}
	tr.do("netsim.meter", func() { out.bitsPerNode = nw.Meter.Since(before).MaxPerNode })
	tr.do("netsim.release", nw.Release)
	return out, nil
}

// aggregates are the one-sweep protocols the solo aggregate kinds call;
// *agg.Net and *byz.RobustNet both provide them.
type aggregates interface {
	Count(core.Domain, wire.Pred) uint64
	Sum(core.Domain, wire.Pred) uint64
	Max(core.Domain) (uint64, bool)
	MultiAggregate(core.Domain, wire.Pred) (count, sum, lo, hi uint64, ok bool)
}

// netNames are the span names a timedNet records its calls under.
type netNames struct{ minmax, count, countvec, sum, max, multiagg string }

var (
	aggNames = netNames{"agg.minmax_sweep", "agg.count_sweep", "agg.countvec_sweep", "agg.sum_sweep", "agg.max_sweep", "agg.multiagg_sweep"}
	byzNames = netNames{"byz.minmax_sweep", "byz.count_sweep", "byz.countvec_sweep", "byz.sum_sweep", "byz.max_sweep", "byz.multiagg_sweep"}
)

// timedNet wraps a primitive-protocol provider so that every sweep the core
// algorithms issue is a span: a selection's span minus its sweeps is the
// stepper's own time, measured in place.
type timedNet struct {
	tr    *tracer
	inner core.Net
	names netNames
}

func (n *timedNet) NumNodes() int { return n.inner.NumNodes() }
func (n *timedNet) MaxX() uint64  { return n.inner.MaxX() }
func (n *timedNet) MinMax(d core.Domain) (lo, hi uint64, ok bool) {
	h := n.tr.begin(n.names.minmax)
	lo, hi, ok = n.inner.MinMax(d)
	n.tr.end(h)
	return
}
func (n *timedNet) Count(d core.Domain, p wire.Pred) uint64 {
	h := n.tr.begin(n.names.count)
	c := n.inner.Count(d, p)
	n.tr.end(h)
	return c
}
func (n *timedNet) CountVec(d core.Domain, preds []wire.Pred, dst []uint64) []uint64 {
	h := n.tr.begin(n.names.countvec)
	dst = n.inner.CountVec(d, preds, dst)
	n.tr.end(h)
	return dst
}
func (n *timedNet) ApxCountRep(d core.Domain, p wire.Pred, r int) []float64 {
	return n.inner.ApxCountRep(d, p, r)
}
func (n *timedNet) ApxSigma() float64 { return n.inner.ApxSigma() }
func (n *timedNet) ApxAlpha() float64 { return n.inner.ApxAlpha() }
func (n *timedNet) Zoom(mu uint64)    { n.inner.Zoom(mu) }
func (n *timedNet) Reset()            { n.inner.Reset() }

// replaySolo dispatches one exact query kind the way the engine's solo path
// does: selections through core on the timed net, aggregates as one sweep.
func replaySolo(tr *tracer, net *timedNet, prims aggregates, q engine.Query) (out unitOutput, err error) {
	floats := func(vs ...uint64) []float64 {
		fs := make([]float64, len(vs))
		for i, v := range vs {
			fs[i] = float64(v)
		}
		return fs
	}
	var ranks []core.BatchRank
	switch q.Kind {
	case engine.KindMedian:
		ranks = []core.BatchRank{{Median: true}}
	case engine.KindQuantiles:
		for _, phi := range q.Phis {
			ranks = append(ranks, core.BatchRank{Phi: phi})
		}
	case engine.KindCount:
		h := tr.begin(net.names.count)
		out.answers = [][]float64{floats(prims.Count(core.Linear, wire.True()))}
		tr.end(h)
		return out, nil
	case engine.KindSum:
		h := tr.begin(net.names.sum)
		out.answers = [][]float64{floats(prims.Sum(core.Linear, wire.True()))}
		tr.end(h)
		return out, nil
	case engine.KindMax:
		h := tr.begin(net.names.max)
		v, _ := prims.Max(core.Linear)
		tr.end(h)
		out.answers = [][]float64{floats(v)}
		return out, nil
	case engine.KindFused:
		h := tr.begin(net.names.multiagg)
		c, s, lo, hi, _ := prims.MultiAggregate(core.Linear, wire.True())
		tr.end(h)
		out.answers, out.sweeps = [][]float64{floats(c, s, lo, hi)}, 1
		return out, nil
	default:
		return out, fmt.Errorf("replay: no solo path for kind %q", q.Kind)
	}
	var res core.BatchResult
	tr.do("core.select", func() { res, err = core.SelectRanksSeeded(net, ranks, q.ProbeWidth, q.SeedWindows) })
	if err != nil {
		return out, err
	}
	out.answers, out.sweeps = [][]float64{floats(res.Values...)}, res.Sweeps
	return out, nil
}

// replayRobust is the robust solo path: localize and quarantine the liars,
// build the trimmed sector plane, cross-check it, then dispatch the kind
// over it.
func replayRobust(tr *tracer, nw *netsim.Network, fe *spantree.FastEngine, q engine.Query) (out unitOutput, err error) {
	view := fe.View()
	tr.do("byz.localize", func() { _, view, err = byz.Localize(nw, view) })
	if err != nil {
		return out, err
	}
	var rnet *byz.RobustNet
	tr.do("byz.robustnet", func() {
		rnet = byz.NewRobustNet(nw, view, byz.WithSketchP(q.SketchP))
		rnet.CrossCheck()
	})
	return replaySolo(tr, &timedNet{tr: tr, inner: rnet, names: byzNames}, rnet, q)
}

// planeMember builds a query's slot in a fusion batch over a population of
// n items.
func planeMember(q engine.Query, n int) (ranks []core.BatchRank, aggs []string, err error) {
	switch q.Kind {
	case engine.KindMedian:
		return []core.BatchRank{{Median: true}}, nil, nil
	case engine.KindQuantile:
		return []core.BatchRank{{K: core.QuantileRank(q.Phi, uint64(n))}}, nil, nil
	case engine.KindQuantiles:
		for _, phi := range q.Phis {
			ranks = append(ranks, core.BatchRank{Phi: phi})
		}
		return ranks, nil, nil
	case engine.KindCount:
		return nil, []string{"count"}, nil
	case engine.KindAvg:
		return nil, []string{"avg"}, nil
	}
	return nil, nil, fmt.Errorf("replay: no fused slot for kind %q", q.Kind)
}

// replayPlane drives one fusion batch's shared probe plane with the public
// pieces the engine's fusion driver is made of: one MinMax round, then
// rounds of stepper proposals merged by a SweepMux into one CountVec sweep
// and handed back to every stepper. Under a phased fault plan a sweep can
// come back incomplete; the replay then does what the engine's retry loop
// does — checkpoint the steppers, re-heal, rebuild over the survivors and
// resume with the checkpoints as hints.
func replayPlane(tr *tracer, spec engine.Spec, nw *netsim.Network, fe *spantree.FastEngine, queries []engine.Query) (out unitOutput, err error) {
	var seeds [][]core.SeedWindow
	for _, q := range queries {
		seeds = append(seeds, q.SeedWindows)
	}
	for attempt := 0; ; attempt++ {
		var n int
		tr.do("engine.population", func() { n = population(nw, fe.View()) })
		steppers := make([]*core.SelectStepper, len(queries))
		aggs := make([][]string, len(queries))
		needSum := false
		tr.do("core.stepper_new", func() {
			for i, q := range queries {
				var ranks []core.BatchRank
				ranks, aggs[i], err = planeMember(q, n)
				if err != nil {
					return
				}
				if len(ranks) > 0 {
					steppers[i] = core.NewSelectStepper(ranks, q.ProbeWidth)
					steppers[i].SeedHints(seeds[i])
				}
				needSum = needSum || (len(aggs[i]) > 0 && aggs[i][0] == "avg")
			}
		})
		if err != nil {
			return out, err
		}
		var incomplete bool
		out, incomplete, err = drivePlane(tr, agg.NewNet(fe), steppers, aggs, needSum)
		if err != nil || !incomplete {
			return out, err
		}
		if attempt >= spec.Retry.Budget {
			return out, errors.New("replay: retry budget exhausted")
		}
		for i, st := range steppers {
			if st != nil {
				seeds[i] = st.Checkpoint(nil)
			}
		}
		tr.do("spantree.reheal", func() {
			var hr *spantree.HealResult
			if hr, _, err = spantree.HealRerooted(nw); err == nil {
				fe = spantree.NewFastView(nw, hr.View)
			}
		})
		if err != nil {
			return out, err
		}
	}
}

// drivePlane runs the rounds. incomplete reports that a sweep failed the
// completeness check (the kernel panics with *IncompleteSweepError, which is
// how the engine learns of it too).
func drivePlane(tr *tracer, net *agg.Net, steppers []*core.SelectStepper, aggs [][]string, needSum bool) (out unitOutput, incomplete bool, err error) {
	depth := tr.depth()
	defer func() {
		if r := recover(); r != nil {
			var ise *spantree.IncompleteSweepError
			if e, ok := r.(error); !ok || !errors.As(e, &ise) {
				panic(r)
			}
			tr.unwind(depth) // the panic skipped the open spans' ends
			incomplete = true
		}
	}()

	var lo, hi uint64
	var ok bool
	tr.do("agg.minmax_sweep", func() { lo, hi, ok = net.MinMax(core.Linear) })
	if !ok {
		return out, false, core.ErrEmpty
	}
	for _, st := range steppers {
		if st != nil {
			st.Bounds(lo, hi)
		}
	}
	mux := agg.NewSweepMux(net)
	bufs := make([][]uint64, len(steppers))
	var total, sum uint64
	resolved := false
	for {
		work := !resolved
		tr.do("core.stepper", func() {
			for i, st := range steppers {
				bufs[i] = bufs[i][:0]
				if st != nil && !(st.Resolved() && st.Done()) {
					bufs[i] = st.Propose(bufs[i])
					work = true
				}
			}
		})
		if !work {
			break
		}
		tr.do("agg.mux", func() {
			mux.Begin()
			for i, st := range steppers {
				if st != nil && !(st.Resolved() && st.Done()) {
					mux.Add(bufs[i])
				}
			}
			if !resolved {
				mux.AddTop(hi)
				if needSum {
					mux.AddSum()
				}
			}
		})
		tr.do("agg.countvec_sweep", func() { mux.Sweep(core.Linear) })
		tr.do("core.stepper", func() {
			if !resolved {
				resolved = true
				total, _ = mux.Top()
				sum, _ = mux.Sum()
				for _, st := range steppers {
					if st != nil {
						if err = st.ResolveN(total); err != nil {
							return
						}
					}
				}
			}
			ts, cs := mux.Thresholds(), mux.Counts()
			for _, st := range steppers {
				if st != nil && !st.Done() {
					st.Observe(ts, cs)
				}
			}
		})
		if err != nil {
			return out, false, err
		}
		if mux.Sweeps > core.MaxSelectSweeps {
			return out, false, core.ErrNoConverge
		}
	}
	out.sweeps = mux.Sweeps
	tr.do("core.stepper", func() {
		for i, st := range steppers {
			switch {
			case st != nil:
				vals := st.Values(nil)
				fs := make([]float64, len(vals))
				for j, v := range vals {
					fs[j] = float64(v)
				}
				out.answers = append(out.answers, fs)
			case aggs[i][0] == "count":
				out.answers = append(out.answers, []float64{float64(total)})
			default:
				out.answers = append(out.answers, []float64{float64(sum) / float64(total)})
			}
		}
	})
	return out, false, nil
}
