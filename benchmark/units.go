package main

import (
	"context"

	"sensoragg/internal/agg"
	"sensoragg/internal/bitio"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/query"
	"sensoragg/internal/serve"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	wl "sensoragg/internal/workload"
)

// unitReps is the repetition count K of every isolated rung.
const unitReps = 20

// timeUnit runs f unitReps times, each inside a span, and returns the
// median duration in µs. prepare (may be nil) runs before each repetition,
// off the clock.
func timeUnit(tr *tracer, name string, prepare, f func()) float64 {
	mark := tr.mark()
	for k := 0; k < unitReps; k++ {
		if prepare != nil {
			prepare()
		}
		tr.nextOp()
		tr.do(name, f)
	}
	return median(durations(tr.since(mark), name))
}

// unitRungs measures single calls into each layer on the workload's own
// deployment: what one sweep of each family, one fork, one heal, one plan,
// one template build costs in isolation. The keys are per-layer metric
// names. Layers the workload bypasses are left out (they report 0).
func unitRungs(tr *tracer, inst *instance) (map[string]float64, error) {
	w, spec := inst.w, inst.spec
	out := map[string]float64{}
	var err error

	// Set-up path: what a cold session pays once per deployment.
	var g *topology.Graph
	out["topology.build_ms"] = timeUnit(tr, "topology.build", nil, func() {
		g, err = topology.Build(spec.Topology, spec.N, spec.Seed)
	}) / 1e3
	if err != nil {
		return nil, err
	}
	var values []uint64
	out["workload.generate_ms"] = timeUnit(tr, "workload.generate", nil, func() {
		values = wl.Generate(w.values, g.N(), spec.MaxX, spec.Seed)
	}) / 1e3
	var tree *topology.Tree
	out["netsim.build_tree_ms"] = timeUnit(tr, "netsim.build_tree", nil, func() {
		tree = netsim.BuildTree(g, 0, spec.MaxChildren)
	}) / 1e3
	items := make([][]uint64, len(values))
	for i, v := range values {
		items[i] = []uint64{v}
	}
	var tpl *netsim.Network
	out["netsim.new_from_tree_ms"] = timeUnit(tr, "netsim.new_from_tree", nil, func() {
		tpl = netsim.NewFromTree(g, tree, items, spec.MaxX, spec.Seed)
	}) / 1e3
	out["engine.template_build_ms"] = timeUnit(tr, "engine.template_build", nil, func() {
		_, err = engine.NewSession().Template(spec)
	}) / 1e3
	if err != nil {
		return nil, err
	}

	// Per-run path.
	out["netsim.fresh_fork_us"] = timeUnit(tr, "netsim.fresh_fork", nil, func() { tpl.Fork(spec.Seed) })
	pool := netsim.NewForkPool(tpl)
	pool.Put(pool.Get(spec.Seed))
	out["netsim.fork_us"] = timeUnit(tr, "netsim.fork", nil, func() { pool.Put(pool.Get(spec.Seed)) })
	sess := inst.eng.Session()
	out["engine.instantiate_us"] = timeUnit(tr, "engine.instantiate", nil, func() {
		var nw *netsim.Network
		if nw, err = sess.Instantiate(spec, spec.Seed); err == nil {
			nw.Release()
		}
	})
	if err != nil {
		return nil, err
	}
	if spec.Faults.Active() {
		out["faults.plan_new_us"] = timeUnit(tr, "faults.plan_new", nil, func() {
			faults.New(spec.Faults, g.N(), 0, spec.Seed)
		})
	}

	// The run network the remaining rungs share: the workload's fault plan
	// without its mid-flight phase, which would strike on the third sweep
	// of a rung that only wants to time sweeps.
	steady := spec.Faults
	steady.MidAt = 0
	nw := pool.Get(spec.Seed)
	plan := func() {
		nw.Faults = nil
		if steady.Active() {
			nw.Faults = faults.New(steady, nw.N(), nw.Root(), spec.Seed)
		}
	}
	plan()
	out["netsim.meter_snapshot_us"] = timeUnit(tr, "netsim.meter_snapshot", nil, func() {
		nw.Meter.Since(nw.Meter.Snapshot())
	})
	var fe *spantree.FastEngine
	if spec.Faults.Structural() {
		out["spantree.heal_us"] = timeUnit(tr, "spantree.heal", plan, func() { fe, _, err = spantree.NewFastHealed(nw) })
		if err != nil {
			return nil, err
		}
	} else {
		fe = spantree.NewFast(nw)
	}
	out["spantree.newfast_us"] = timeUnit(tr, "spantree.newfast", nil, func() { agg.NewNet(spantree.NewFast(nw)) })

	// One sweep of each family.
	net := agg.NewNet(fe)
	preds := func(k int) []wire.Pred {
		ps := make([]wire.Pred, k)
		for i := range ps {
			ps[i] = wire.Less(spec.MaxX * uint64(i+1) / uint64(k+1))
		}
		return ps
	}
	var counts []uint64
	p8, p64 := preds(8), preds(64)
	out["agg.count_sweep_us"] = timeUnit(tr, "agg.count_sweep", nil, func() { net.Count(core.Linear, wire.True()) })
	out["agg.sum_sweep_us"] = timeUnit(tr, "agg.sum_sweep", nil, func() { net.Sum(core.Linear, wire.True()) })
	out["agg.minmax_sweep_us"] = timeUnit(tr, "agg.minmax_sweep", nil, func() { net.MinMax(core.Linear) })
	out["agg.multiagg_sweep_us"] = timeUnit(tr, "agg.multiagg_sweep", nil, func() { net.MultiAggregate(core.Linear, wire.True()) })
	out["agg.countvec8_sweep_us"] = timeUnit(tr, "agg.countvec8_sweep", nil, func() { counts = net.CountVec(core.Linear, p8, counts) })
	out["agg.countvec64_sweep_us"] = timeUnit(tr, "agg.countvec64_sweep", nil, func() { counts = net.CountVec(core.Linear, p64, counts) })

	// One selection: on the network, and on a slice where the sweeps cost
	// next to nothing and are subtracted anyway — the stepper alone.
	var sel core.BatchResult
	median1 := []core.BatchRank{{Median: true}}
	out["core.select_us"] = timeUnit(tr, "core.select", nil, func() {
		sel, err = core.SelectRanksBatched(net, median1, core.DefaultProbeWidth)
	})
	if err != nil {
		return nil, err
	}
	out["core.sweeps_per_select"] = float64(sel.Sweeps)
	out["core.probes_per_select"] = float64(sel.Probes)
	local := &timedNet{tr: tr, inner: core.NewLocalNet(nw.AllItems(), spec.MaxX), names: localNames}
	mark := tr.mark()
	timeUnit(tr, "core.select_local", nil, func() { _, err = core.SelectRanksBatched(local, median1, core.DefaultProbeWidth) })
	if err != nil {
		return nil, err
	}
	out["core.stepper_self_us"] = selfTimes(tr.since(mark))["core"] / unitReps

	if w.robust {
		view := fe.View()
		out["byz.localize_us"] = timeUnit(tr, "byz.localize", func() {
			plan()
			fe, _, err = spantree.NewFastHealed(nw)
		}, func() { _, view, err = byz.Localize(nw, fe.View()) })
		if err != nil {
			return nil, err
		}
		rnet := byz.NewRobustNet(nw, view)
		out["byz.robust_countvec_us"] = timeUnit(tr, "byz.robust_countvec", nil, func() { counts = rnet.CountVec(core.Linear, p8, counts) })
	}
	nw.Release()

	if w.serve {
		i := 0
		out["query.parse_us"] = timeUnit(tr, "query.parse", nil, func() {
			_, err = query.Parse(w.member(i).stmt)
			i++
		})
		if err != nil {
			return nil, err
		}
		svc, err := serve.New(serve.Options{Spec: spec, Engine: inst.eng, Robust: w.robust})
		if err != nil {
			return nil, err
		}
		out["serve.subscribe_us"] = timeUnit(tr, "serve.subscribe", nil, func() {
			_, err = svc.Subscribe(context.Background(), w.member(i).stmt)
			i++
		})
		svc.Close()
		if err != nil {
			return nil, err
		}
	}

	// The codecs under every sweep: encode + decode per value, ns.
	const codecValues = 4096
	wr := bitio.NewWriter(codecValues * 4)
	width := bitio.WidthOfRange(spec.MaxX)
	perValueNS := func(us float64) float64 { return us * 1e3 / codecValues }
	out["bitio.gamma_rt_ns"] = perValueNS(timeUnit(tr, "bitio.gamma_rt", nil, func() {
		wr.Reset()
		for v := uint64(0); v < codecValues; v++ {
			wr.WriteGamma(v)
		}
		r := bitio.NewReader(wr.Bytes(), wr.Len())
		for v := 0; v < codecValues; v++ {
			r.ReadGamma()
		}
	}))
	out["bitio.bits_rt_ns"] = perValueNS(timeUnit(tr, "bitio.bits_rt", nil, func() {
		wr.Reset()
		for v := uint64(0); v < codecValues; v++ {
			wr.WriteBits(v, width)
		}
		r := bitio.NewReader(wr.Bytes(), wr.Len())
		for v := 0; v < codecValues; v++ {
			r.ReadBits(width)
		}
	}))
	out["wire.pred_rt_ns"] = perValueNS(timeUnit(tr, "wire.pred_rt", nil, func() {
		wr.Reset()
		for v := uint64(0); v < codecValues; v++ {
			wire.Less(v).AppendTo(wr, width)
		}
		r := bitio.NewReader(wr.Bytes(), wr.Len())
		for v := 0; v < codecValues; v++ {
			wire.DecodePred(r, width)
		}
	}))
	return out, nil
}

var localNames = netNames{minmax: "local.minmax", count: "local.count", countvec: "local.countvec"}
