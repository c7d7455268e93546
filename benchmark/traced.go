package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"sensoragg/internal/obs"
)

// perLayer lists every metric of a traced run, layer by layer. Times are
// medians; *_per_op counts are means over the ops that ran with the obs
// sink on. A layer a workload bypasses reports 0, never a missing name.
var perLayer = []metricDef{
	// serve: the epoch scheduler, seeding, delivery.
	{name: "serve.epoch_us", unit: "us", better: "lower"},
	{name: "serve.self_us", unit: "us", better: "lower"},
	{name: "serve.drain_us", unit: "us", better: "lower"},
	{name: "serve.subscribe_us", unit: "us", better: "lower"},
	{name: "serve.seed_hit_frac", unit: "fraction", better: "higher"},
	{name: "serve.dropped_per_op", unit: "count", better: "lower"},
	{name: "serve.lkg_per_op", unit: "count", better: "lower"},
	{name: "serve.share_frac", unit: "fraction", better: "lower"},
	// engine: planning, dispatch, fork, truth, result assembly, retry loop.
	{name: "engine.submit_fused_us", unit: "us", better: "lower"},
	{name: "engine.submit_solo_us", unit: "us", better: "lower"},
	{name: "engine.self_us", unit: "us", better: "lower"},
	{name: "engine.instantiate_us", unit: "us", better: "lower"},
	{name: "engine.template_build_ms", unit: "ms", better: "lower"},
	{name: "engine.fused_frac", unit: "fraction", better: "higher"},
	{name: "engine.batch_size", unit: "count", better: "higher"},
	{name: "engine.retries_per_op", unit: "count", better: "lower"},
	{name: "engine.degraded_frac", unit: "fraction", better: "lower"},
	{name: "engine.detach_per_op", unit: "count", better: "lower"},
	{name: "engine.pool_speedup", unit: "ratio", better: "higher"},
	{name: "engine.share_frac", unit: "fraction", better: "lower"},
	// core: the selection stepper.
	{name: "core.select_us", unit: "us", better: "lower"},
	{name: "core.stepper_self_us", unit: "us", better: "lower"},
	{name: "core.sweeps_per_select", unit: "count", better: "lower"},
	{name: "core.probes_per_select", unit: "count", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.share_frac", unit: "fraction", better: "lower"},
	// agg: the sweeps (their time includes the spantree kernel that runs
	// the combiners) and the sweep mux.
	{name: "agg.count_sweep_us", unit: "us", better: "lower"},
	{name: "agg.sum_sweep_us", unit: "us", better: "lower"},
	{name: "agg.minmax_sweep_us", unit: "us", better: "lower"},
	{name: "agg.multiagg_sweep_us", unit: "us", better: "lower"},
	{name: "agg.countvec8_sweep_us", unit: "us", better: "lower"},
	{name: "agg.countvec64_sweep_us", unit: "us", better: "lower"},
	{name: "agg.mux_self_us", unit: "us", better: "lower"},
	{name: "agg.chain_width_mean", unit: "count", better: "lower"},
	{name: "agg.self_us", unit: "us", better: "lower"},
	{name: "agg.share_frac", unit: "fraction", better: "lower"},
	// spantree: engine construction, heal, re-heal; sweep counts.
	{name: "spantree.sweeps_per_op", unit: "count", better: "lower"},
	{name: "spantree.broadcasts_per_op", unit: "count", better: "lower"},
	{name: "spantree.newfast_us", unit: "us", better: "lower"},
	{name: "spantree.heal_us", unit: "us", better: "lower"},
	{name: "spantree.heal_repair_kbits", unit: "kbit", better: "lower"},
	{name: "spantree.sweeps_incomplete_per_op", unit: "count", better: "lower"},
	{name: "spantree.self_us", unit: "us", better: "lower"},
	{name: "spantree.share_frac", unit: "fraction", better: "lower"},
	// netsim: forks, the meter, template construction.
	{name: "netsim.fork_us", unit: "us", better: "lower"},
	{name: "netsim.fresh_fork_us", unit: "us", better: "lower"},
	{name: "netsim.build_tree_ms", unit: "ms", better: "lower"},
	{name: "netsim.new_from_tree_ms", unit: "ms", better: "lower"},
	{name: "netsim.meter_snapshot_us", unit: "us", better: "lower"},
	{name: "netsim.self_us", unit: "us", better: "lower"},
	{name: "netsim.share_frac", unit: "fraction", better: "lower"},
	// byz: audits and the trimmed sector plane.
	{name: "byz.localize_us", unit: "us", better: "lower"},
	{name: "byz.robust_countvec_us", unit: "us", better: "lower"},
	{name: "byz.audit_rounds_per_op", unit: "count", better: "lower"},
	{name: "byz.audit_kbits_per_op", unit: "kbit", better: "lower"},
	{name: "byz.quarantined_per_op", unit: "count", better: "lower"},
	{name: "byz.suspected_per_op", unit: "count", better: "lower"},
	{name: "byz.integrity_bound_max", unit: "count", better: "lower"},
	{name: "byz.self_us", unit: "us", better: "lower"},
	{name: "byz.share_frac", unit: "fraction", better: "lower"},
	// faults, topology, workload, query.
	{name: "faults.plan_new_us", unit: "us", better: "lower"},
	{name: "faults.self_us", unit: "us", better: "lower"},
	{name: "faults.share_frac", unit: "fraction", better: "lower"},
	{name: "topology.build_ms", unit: "ms", better: "lower"},
	{name: "workload.generate_ms", unit: "ms", better: "lower"},
	{name: "query.parse_us", unit: "us", better: "lower"},
	// bitio, wire: encode + decode per value.
	{name: "bitio.gamma_rt_ns", unit: "ns", better: "lower"},
	{name: "bitio.bits_rt_ns", unit: "ns", better: "lower"},
	{name: "wire.pred_rt_ns", unit: "ns", better: "lower"},
	// obs.
	{name: "obs.events_per_op", unit: "count", better: "lower"},
	{name: "obs.on_overhead_frac", unit: "fraction", better: "lower"},
	// process, driver, trace: diagnostics of the run itself.
	{name: "process.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "process.gc_per_op", unit: "count", better: "lower"},
	{name: "process.gc_pause_us_per_op", unit: "us", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "driver.op_tail_us", unit: "us", better: "lower"},
	{name: "driver.op_tail_pct", unit: "%", better: "higher"},
	{name: "driver.op_max_us", unit: "us", better: "lower"},
	{name: "driver.samples", unit: "count", better: "higher"},
	{name: "driver.slice_rate_iqr_frac", unit: "fraction", better: "lower"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "trace.unattributed_frac", unit: "fraction", better: "lower"},
}

func perLayerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// selfLayers are the layers the op's time is attributed to.
var selfLayers = []string{"serve", "engine", "core", "agg", "spantree", "netsim", "byz", "faults"}

// Traced-run modes of an op, cycled block by block so that each mode sees
// the same mix of ops and the same machine weather.
const (
	modeOff   = iota // what the end-to-end run measures
	modeObs          // obs sink on
	modeTrace        // obs sink on and spans recorded
	numModes
)

// tracedRun produces the per-layer metrics: one cold set-up and warm-up,
// then ops in interleaved off/obs/traced blocks for about half of
// `seconds`, then the layer ladder, then the isolated rungs. It writes the
// spans as JSONL when the run ends.
func tracedRun(w *workload, seed uint64, seconds float64, spansPath string) (*report, error) {
	procs := setProcs()
	inst, setups, err := coldSetups(w, seed, procs, 1, 0)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	m := &measurement{workload: w, seed: seed, gomaxprocs: procs, workers: procs, setupSeconds: setups}
	var warm tally
	for i := 0; i < w.warmup; i++ {
		step(inst, -1, &warm, nil)
	}

	tr := newTracer()
	sink := obs.NewSink()
	defer obs.Disable()

	// Blocks of about 0.2 s; at least 4 ops each.
	probe := step(inst, -1, &warm, nil).seconds
	block := max(4, int(0.2/probe))
	var lat [numModes][]float64
	var obsOps int
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for b, i := 0, 0; time.Since(start).Seconds() < 0.45*seconds || b%numModes != 0; b++ {
		mode := b % numModes
		switch mode {
		case modeOff:
			// The process counters range over the modeOff blocks only.
			runtime.ReadMemStats(&ms0)
			m.cpuSeconds -= cpuSeconds()
		case modeObs:
			obs.EnableWith(sink)
		case modeTrace:
			obs.EnableWith(sink)
			inst.tr = tr
		}
		for k := 0; k < block; k, i = k+1, i+1 {
			rec := step(inst, i, &m.all, nil)
			lat[mode] = append(lat[mode], rec.seconds*1e6)
			if mode == modeOff {
				m.records = append(m.records, rec)
			} else {
				obsOps++
			}
		}
		obs.Disable()
		inst.tr = nil
		if mode == modeOff {
			m.cpuSeconds += cpuSeconds()
			runtime.ReadMemStats(&ms1)
			m.gcCycles += ms1.NumGC - ms0.NumGC
			m.gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	m.wallSeconds = time.Since(start).Seconds()

	var subsDropped int64
	for _, sub := range inst.subs {
		subsDropped += sub.Dropped()
	}
	totalOps := m.all.ops

	// The ladder and the isolated rungs run with the sink off.
	reps := min(max(int(1.0/probe), 20), 100)
	lr, err := runLadder(inst, tr, reps)
	if err != nil {
		return nil, err
	}
	units, err := unitRungs(tr, inst)
	if err != nil {
		return nil, err
	}
	m.peakRSSKB = peakRSSKB()
	if err := tr.writeJSONL(spansPath); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for name, v := range units {
		vals[name] = v
	}
	for name, v := range driverValues(m) {
		vals[name] = v
	}

	// Counts from the obs sink, per op that ran with it on.
	perObsOp := func(n int64) float64 { return float64(n) / float64(obsOps) }
	vals["spantree.sweeps_per_op"] = perObsOp(sink.Sweeps.Value())
	vals["spantree.broadcasts_per_op"] = perObsOp(sink.Broadcasts.Value())
	vals["spantree.sweeps_incomplete_per_op"] = perObsOp(sink.SweepsIncomplete.Value())
	vals["engine.detach_per_op"] = perObsOp(sink.FusionDetach.Value())
	if n := sink.ChainWidth.Count(); n > 0 {
		vals["agg.chain_width_mean"] = sink.ChainWidth.Sum() / float64(n)
	}
	if n := sink.FusionBatchSize.Count(); n > 0 {
		vals["engine.batch_size"] = sink.FusionBatchSize.Sum() / float64(n)
	}
	if n := sink.SeedHits.Value() + sink.SeedMisses.Value(); n > 0 {
		vals["serve.seed_hit_frac"] = float64(sink.SeedHits.Value()) / float64(n)
	}
	if ev := sink.Tracer.Last(1); len(ev) > 0 {
		vals["obs.events_per_op"] = perObsOp(int64(ev[0].Seq))
	}

	// Counts from the delivered results, per op.
	t := &m.all
	perOp := func(n int64) float64 { return float64(n) / float64(totalOps) }
	vals["serve.dropped_per_op"] = perOp(subsDropped)
	vals["serve.lkg_per_op"] = perOp(int64(t.lkg))
	vals["engine.fused_frac"] = float64(t.fused) / float64(max(t.usable, 1))
	vals["engine.retries_per_op"] = perOp(t.retries)
	vals["engine.degraded_frac"] = float64(t.degraded) / float64(t.attempted)
	vals["spantree.heal_repair_kbits"] = perOp(t.repairBits) / 1000
	vals["byz.audit_rounds_per_op"] = perOp(int64(t.auditRounds))
	vals["byz.audit_kbits_per_op"] = perOp(t.auditBits) / 1000
	vals["byz.quarantined_per_op"] = perOp(int64(t.quarantined))
	vals["byz.suspected_per_op"] = perOp(int64(t.suspected))
	vals["byz.integrity_bound_max"] = float64(t.boundMax)

	// Overheads: medians of the interleaved blocks.
	p50 := func(us []float64) float64 { slices.Sort(us); return percentile(us, 50) }
	offUS := p50(lat[modeOff])
	vals["obs.on_overhead_frac"] = p50(lat[modeObs])/offUS - 1
	vals["trace.overhead_frac"] = p50(lat[modeTrace])/offUS - 1

	// The ladder: self time per layer, and each layer's share of the op's
	// serial-equivalent time (the op with the worker pool's overlap taken
	// out, so that shares add up).
	self := map[string]float64{}
	for layer, us := range lr.layerSelf {
		self[layer] = us
	}
	self["serve"] = lr.serveSelfUS
	self["engine"] += lr.engineSelfUS
	whole := self["serve"] + lr.serialUS
	var covered float64
	for _, layer := range selfLayers {
		vals[layer+".self_us"] = self[layer]
		vals[layer+".share_frac"] = self[layer] / whole
		covered += max(self[layer], 0)
	}
	vals["trace.unattributed_frac"] = math.Abs(whole-covered) / whole
	vals["serve.epoch_us"] = lr.epochUS
	vals["serve.drain_us"] = lr.drainUS
	if w.onePlane() {
		vals["engine.submit_fused_us"] = lr.submitUS
	} else {
		vals["engine.submit_solo_us"] = lr.serialUS
	}
	vals["engine.pool_speedup"] = lr.serialUS / lr.submitUS
	vals["agg.mux_self_us"] = lr.spanUS["agg.mux"]

	rep := newReport(m, "traced")
	rep.header += fmt.Sprintf("\nladder over %d recorded ops in %d unit(s): op %.0f us = serve %.0f + engine.Submit %.0f; units in series %.0f; replay %.0f; isolated rungs x%d; %d spans -> %s",
		lr.reps, lr.units, lr.opUS, self["serve"], lr.submitUS, lr.serialUS, lr.replayUS, unitReps, len(tr.spans), spansPath)
	for _, d := range perLayer {
		rep.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	return rep, nil
}
