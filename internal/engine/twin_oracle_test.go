package engine

import (
	"context"
	"slices"
	"sync"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
)

// This file is the twin rule's oracle: the engine's planner, dispatcher and
// fusion-group runner as they were before equal jobs ran once — every job
// executed on its own, except duplicate members of one fusion batch, which
// shared a slot of runFusedGroup's private table. The code below is that
// version verbatim, renamed with an oracle prefix; twin_test.go holds
// Submit's results to it.

// oracleRunAll is Submit's body, with its ordering and failure contract: every
// result is written at its job's index, and jobs that never started are
// marked with the context error. With fuse set, fusable jobs against one
// deployment become a fusion batch dispatched to a single worker (see
// fusion.go); everything else runs solo.
func (e *Engine) oracleRunAll(ctx context.Context, jobs []Job, fuse bool) []Result {
	results := make([]Result, len(jobs))
	units := oraclePlanUnits(jobs, fuse)
	// (The obs.Active() grouping event is left out: the oracle is held to
	// results, and the event's shape is the planner's.)
	uidx := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(units) {
		workers = len(units)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range uidx {
				e.oracleRunUnit(ctx, jobs, units[u], results)
			}
		}()
	}
	dispatched := make([]bool, len(units))
feed:
	for u := range units {
		select {
		case uidx <- u:
			dispatched[u] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(uidx)
	wg.Wait()
	for u, unit := range units {
		if !dispatched[u] {
			for _, i := range unit {
				results[i] = failedResult(jobs[i], ctx.Err())
			}
		}
	}
	return results
}

// oraclePlanUnits partitions jobs into execution units: a unit is either one
// solo job or a fusion batch of ≥2 compatible jobs. Units are dispatched
// to the worker pool as wholes; results are always written back by
// original job index, so fusion never reorders a batch's results. (The
// per-Submit audit groups it also planned are left out: every robust job
// audits for itself, the most independent oracle for the shared audit.)
func oraclePlanUnits(jobs []Job, fuse bool) (units [][]int) {
	units = make([][]int, 0, len(jobs))
	groups := make(map[fuseKey]int)
	for i := range jobs {
		key := fuseKey{spec: jobs[i].Spec.Normalize(), seed: jobs[i].runSeed(), overlay: jobs[i].Overlay}
		// Robust jobs stay solo: the byz tier aggregates per sector with
		// its own trimmed plane, which the shared probe schedule cannot
		// represent. So do WHERE jobs: each filters its own multiset.
		if !fuse || kindOf(jobs[i].Query.Kind).member == nil || jobs[i].Query.Robust || jobs[i].Query.Where != nil {
			units = append(units, []int{i})
			continue
		}
		if u, ok := groups[key]; ok {
			units[u] = append(units[u], i)
		} else {
			groups[key] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
}

// oracleRunUnit executes one unit, writing results by original job index.
func (e *Engine) oracleRunUnit(ctx context.Context, jobs []Job, idxs []int, results []Result) {
	if len(idxs) == 1 {
		results[idxs[0]] = e.runOne(ctx, jobs[idxs[0]], e.teamSize(1))
		return
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			results[i] = failedResult(jobs[i], err)
		}
		return
	}
	solo := e.oracleRunFusedGroup(ctx, jobs, idxs, results)
	if sk := obs.Active(); sk != nil && len(solo) > 0 {
		sk.FusionSolo.Add(int64(len(solo)))
	}
	for _, i := range solo {
		// Detached or unfusable members finish solo with their own full
		// deadline: fusion must never fail a query that would have
		// succeeded alone.
		results[i] = e.runOne(ctx, jobs[i], e.teamSize(1))
	}
}

// oracleSameQuery reports whether two resolved queries are field-for-field equal:
// the members of one batch for which it holds are one statement asked more
// than once, and share a slot.
func oracleSameQuery(a, b *Query) bool {
	return a.Kind == b.Kind && a.K == b.K && a.Phi == b.Phi && a.Eps == b.Eps && a.Beta == b.Beta &&
		a.SketchP == b.SketchP && a.Where == b.Where && a.ProbeWidth == b.ProbeWidth &&
		a.Robust == b.Robust && slices.Equal(a.Phis, b.Phis) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.SeedWindows, b.SeedWindows)
}

// oracleRunFusedGroup executes a fusion batch on one forked network and writes
// member results by original index. It returns the indices that must
// finish solo: members whose parameters need the solo error path, members
// the deadline detached, and — on a batch-level panic — every member not
// yet answered. A panicking batch skips the pool release, like a
// panicking solo run.
func (e *Engine) oracleRunFusedGroup(ctx context.Context, jobs []Job, idxs []int, results []Result) (solo []int) {
	spec := jobs[idxs[0]].Spec.Normalize()
	start := time.Now()
	var deadline time.Time
	if e.timeout > 0 {
		deadline = start.Add(e.timeout)
	}
	// written is indexed like results; a small Submit keeps it on the stack.
	var few [32]bool
	written := few[:]
	if len(results) > len(few) {
		written = make([]bool, len(results))
	}
	defer func() {
		if r := recover(); r != nil {
			solo = solo[:0]
			for _, i := range idxs {
				if !written[i] {
					solo = append(solo, i)
				}
			}
		}
	}()

	// failAll fails every member before any was answered.
	failAll := func(err error) []int {
		for _, i := range idxs {
			results[i] = failedResult(jobs[i], err)
			written[i] = true
		}
		return nil
	}
	nw, err := e.session.Instantiate(spec, jobs[idxs[0]].runSeed())
	if err != nil {
		return failAll(err)
	}
	if ov := jobs[idxs[0]].Overlay; ov != nil {
		if err := ov.apply(nw); err != nil {
			nw.Release()
			return failAll(err)
		}
	}
	before := nw.Meter.Snapshot()
	fe, hr, err := spantree.NewFastHealed(nw)
	if err != nil {
		nw.Release()
		return failAll(err)
	}
	fe.SetWorkers(e.treeWorkers)
	truth := &groundTruth{nw: nw, view: fe.View()}

	// Members whose resolved queries are equal (seed windows included) share
	// one slot — one member, one stepper, one assembled answer: the mux
	// dedups their thresholds anyway, so every bit and sweep is what a slot
	// each would cost. slot[k] is job memberIdx[k]'s (one allocation for both).
	queries := make([]Query, 0, 4)
	members := make([]member, 0, 4)
	ints := make([]int, 2*len(idxs))
	memberIdx, slot := ints[:0:len(idxs)], ints[len(idxs):][:0]
	for _, ji := range idxs {
		q := jobs[ji].Query.WithDefaults()
		s := 0
		for s < len(queries) && !oracleSameQuery(&queries[s], &q) {
			s++
		}
		if s == len(queries) {
			mb, err := kindOf(q.Kind).slot(q, truth.count())
			if err != nil {
				solo = append(solo, ji)
				continue
			}
			queries, members = append(queries, q), append(members, mb)
		}
		memberIdx, slot = append(memberIdx, ji), append(slot, s)
	}
	if len(memberIdx) < 2 {
		// A batch of one has nothing to share; its solo run is the same
		// protocol without the fusion bookkeeping.
		nw.Release()
		return append(solo, memberIdx...)
	}

	o, err := runBatch(ctx, nw, spec, agg.NewNet(fe), queries, members, outcome{hr: hr, truth: truth}, deadline)
	d := nw.Meter.Since(before)
	wall := time.Since(start)
	if err != nil {
		// Batch-impossible (empty active multiset): every member reports
		// it through its own solo path.
		nw.Release()
		return append(solo, memberIdx...)
	}

	// One answer per slot, over one ground truth per batch.
	shared := fusedDetail(len(memberIdx), o.res.sweeps)
	answers := make([]Result, len(members))
	for mi := range o.res.members {
		if mr := &o.res.members[mi]; !mr.detached && mr.err == nil {
			o.answer(&answers[mi], &members[mi], mr, o.detail(&members[mi], shared))
		}
	}
	sk := obs.Active()
	var span uint64
	if sk != nil {
		span = sk.Tracer.NextSpan()
	}
	detached := 0
	for k, ji := range memberIdx {
		mi := slot[k]
		mr := &o.res.members[mi]
		if mr.detached {
			detached++
			if sk != nil {
				sk.FusionDetach.Add(1)
				sk.Tracer.Emit("fusion.detach", span,
					obs.KV{K: "job", V: int64(ji)},
					obs.KV{K: "seeded_sweeps", V: int64(mr.seededSweeps)})
			}
			solo = append(solo, ji)
			continue
		}
		if mr.err != nil {
			results[ji] = failedResult(jobs[ji], mr.err)
			written[ji] = true
			continue
		}
		// The slot's query stands in for the job's own, equal field for
		// field: duplicates share its slices like they share the answer's.
		r := answers[mi]
		r.ID, r.Fused = jobs[ji].ID, true
		resultFrom(&r, spec, queries[mi], d, wall)
		results[ji] = r
		written[ji] = true
	}
	if sk != nil {
		e.obsFusedBatch(sk, span, jobs[idxs[0]], len(memberIdx), detached, o.res.sweeps, o.res.probes, d, wall)
	}
	nw.Release()
	return solo
}
