package engine

import (
	"time"

	"sensoragg/internal/byz"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
)

// Observability hooks for the execution and fusion planes. Everything
// here fires at job/batch granularity and reads only values the engine
// already computed — in particular the bits/node figures come from the
// Meter.Since deltas taken at job and batch boundaries, so the Meter's
// single-writer Seq charge paths stay untouched. Call sites guard on
// obs.Active(), keeping the disabled cost to one atomic load per job.

// obsSubmit records one grouping event per runAll: how many jobs were
// planned into how many execution units (units smaller than the job
// count mean fusion batched something), and how many jobs are twins,
// answered by another job's execution.
func (e *Engine) obsSubmit(sk *obs.Sink, jobs []Job, p plan) {
	fused, twins := 0, len(jobs)
	for _, u := range p.units {
		twins -= len(u)
		if p.batch(jobs, u) {
			fused++
		}
	}
	sk.Tracer.Emit("engine.submit", 0,
		obs.KV{K: "jobs", V: int64(len(jobs))},
		obs.KV{K: "units", V: int64(len(p.units))},
		obs.KV{K: "fused_units", V: int64(fused)},
		obs.KV{K: "twins", V: int64(twins)})
}

// obsSoloJob records one event per job executed outside a fused batch.
func (e *Engine) obsSoloJob(sk *obs.Sink, job Job, d netsim.Delta, wall time.Duration) {
	sk.Queries.Add(1)
	sk.BitsPerNode.Observe(float64(d.MaxPerNode))
	ev := [4]obs.KV{
		{K: "bits_per_node", V: d.MaxPerNode},
		{K: "total_bits", V: d.TotalBits},
		{K: "wall_ns", V: wall.Nanoseconds()},
		{K: "epoch", V: -1},
	}
	if job.Overlay != nil {
		ev[3].V = int64(job.Overlay.Epoch)
	}
	sk.Tracer.Emit("job.solo", 0, ev[:]...)
}

// obsRobust records the byz-tier outcome of one robust job, res: suspected
// and quarantined totals, the residual integrity bound, and one trace event
// carrying the localization shape and integrity's trims.
func obsRobust(sk *obs.Sink, res *Result, integrity byz.Integrity) {
	if res.Suspected > 0 {
		sk.ByzSuspected.Add(int64(res.Suspected))
	}
	if res.Quarantined > 0 {
		sk.ByzQuarantined.Add(int64(res.Quarantined))
	}
	sk.IntegrityBound.Set(float64(integrity.BoundItems))
	sk.Tracer.Emit("byz.robust", 0,
		obs.KV{K: "suspected", V: int64(res.Suspected)},
		obs.KV{K: "quarantined", V: int64(res.Quarantined)},
		obs.KV{K: "rounds", V: int64(res.AuditRounds)},
		obs.KV{K: "audit_bits", V: res.AuditBits},
		obs.KV{K: "bound_items", V: int64(integrity.BoundItems)},
		obs.KV{K: "trims", V: int64(integrity.Trims)})
}

// obsFusedBatch records the batch-completion event of one fusion group:
// member count, sweeps and probes shipped on the shared plane, the members
// a stop left unanswered (detached), and the batch's bits/node.
func (e *Engine) obsFusedBatch(sk *obs.Sink, job Job, members, detached int, sweeps, probes int, d netsim.Delta, wall time.Duration) {
	sk.FusionBatchSize.Observe(float64(members))
	sk.FusionDetach.Add(int64(detached))
	sk.BitsPerNode.Observe(float64(d.MaxPerNode))
	ev := [8]obs.KV{
		{K: "members", V: int64(members)},
		{K: "detached", V: int64(detached)},
		{K: "sweeps", V: int64(sweeps)},
		{K: "probes", V: int64(probes)},
		{K: "bits_per_node", V: d.MaxPerNode},
		{K: "total_bits", V: d.TotalBits},
		{K: "wall_ns", V: wall.Nanoseconds()},
		{K: "epoch", V: -1},
	}
	if job.Overlay != nil {
		ev[7].V = int64(job.Overlay.Epoch)
	}
	sk.Tracer.Emit("fusion.batch", 0, ev[:]...)
}
