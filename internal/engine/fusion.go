package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// This file is the fusion scheduler: concurrent jobs that target the same
// deployment (equal normalized spec and run seed) and are
// fusion-compatible — selection searches, multi-quantiles, and the
// Fact 2.1 aggregates — execute as one *fusion batch* on a single forked
// network instead of per-job forks. Every sweep round merges the members'
// outstanding probe thresholds into one deduplicated ascending chain and
// ships it as a single CountVec broadcast–convergecast (agg.SweepMux);
// aggregate members ride the same round via the widened CountVecSum
// vector and the batch's shared MinMax round. The engine therefore pays
// the tree traffic once per round for the whole batch.
//
// Fusion preserves answers exactly: selection is an exact search whose
// result does not depend on the probe schedule, and the aggregate riders
// compute the same exact totals the standalone protocols do, so a fused
// member's values and truths are byte-identical to its solo run for
// reliable networks and for structural fault plans (crash/linkfail heal
// the tree once per batch, then counts are exact over the survivors).
// Message-level drop/dup plans corrupt traffic as a function of the
// delivery sequence, which fusion necessarily changes — fused answers
// under drop/dup are deterministic but may differ from solo ones, exactly
// as the search at one probe width may differ from another.

// memberResult is one member's outcome.
type memberResult struct {
	// values are a selection member's order statistics, one per rank.
	values []uint64
	// aggValues are an aggregate member's answers, aligned with its aggs.
	aggValues []float64
	// err reports a per-member failure (unresolvable rank, context
	// cancellation) — the same error the member's solo run would report.
	err error
	// detached marks a member the batch's deadline expired on before its
	// search resolved: it holds no answer and re-runs solo with its own full
	// deadline, so fusing never fails a query that would succeed alone.
	detached bool
	// seededSweeps/seedHit report a seeded selection member's
	// delta-narrowing outcome (see core.SelectStepper).
	seededSweeps int
	seedHit      bool
}

// batchResult reports one batch attempt.
type batchResult struct {
	members []memberResult
	// sweeps is the number of shared probe sweeps the attempt executed (the
	// MinMax round is not counted); probes is the total number of
	// predicates shipped across them. Every member was answered by this
	// one schedule — the numbers fusion compresses.
	sweeps, probes int
	// The shared all-active count and sum riders (sum only when some
	// member asked for it) and the shared extrema.
	fact21
}

// fact21 are the Fact 2.1 totals of a multiset: its size, Σ, min and max.
type fact21 struct{ n, sum, lo, hi uint64 }

// aggregate is one Fact 2.1 aggregate (count|sum|min|max|avg) of the
// totals; avg over an empty multiset reads 0.
func (f *fact21) aggregate(name string) float64 {
	switch name {
	case "count":
		return float64(f.n)
	case "sum":
		return float64(f.sum)
	case "min":
		return float64(f.lo)
	case "max":
		return float64(f.hi)
	}
	if f.n == 0 {
		return 0
	}
	return float64(f.sum) / float64(f.n)
}

// driveFused runs one batch attempt's shared probe schedule to
// completion: one MinMax round, then merged CountVec sweeps until every
// member resolves, then per-member answer assembly into res. It returns
// the selection members' steppers — after a failed attempt, their last
// consistent intervals are the checkpoints the resumed attempt seeds from.
// A sweep a mid-flight fault killed — the agg layer panics with it — comes
// back as ise; any other panic propagates.
func driveFused(ctx context.Context, net *agg.Net, members []member, deadline time.Time, res *batchResult) (steppers []*core.SelectStepper, ise *spantree.IncompleteSweepError, err error) {
	defer func() {
		if r := recover(); r != nil {
			var killed *spantree.IncompleteSweepError
			if e, ok := r.(error); !ok || !errors.As(e, &killed) {
				panic(r)
			}
			ise, err = killed, nil
		}
	}()
	steppers = make([]*core.SelectStepper, len(members))
	needSum := false
	for i := range members {
		if mb := &members[i]; len(mb.ranks) > 0 {
			steppers[i] = core.NewSelectStepper(mb.ranks, mb.width)
			steppers[i].SeedHints(mb.seeds)
		} else {
			needSum = needSum || slices.Contains(mb.aggs, "sum") || slices.Contains(mb.aggs, "avg")
		}
	}
	lo, hi, ok := net.MinMax(core.Linear)
	if !ok {
		return steppers, nil, core.ErrEmpty
	}
	res.lo, res.hi = lo, hi
	for _, st := range steppers {
		if st != nil {
			st.Bounds(lo, hi)
		}
	}

	mux := agg.NewSweepMux(net)
	var probeBuf []uint64
	resolved := false // the shared top probe (N) has run
	// finish marks every unresolved member the batch is abandoning.
	// Members that already resolved keep their answers: control falls
	// through to the assembly loop below, never out of the drive early —
	// a member is always either answered, failed, or detached.
	finish := func(mark func(r *memberResult)) {
		for i := range members {
			r := &res.members[i]
			if r.err != nil {
				continue
			}
			if st := steppers[i]; st != nil {
				if !st.Resolved() || !st.Done() {
					mark(r)
				}
			} else if !resolved {
				mark(r)
			}
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			finish(func(r *memberResult) { r.err = err })
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			finish(func(r *memberResult) { r.detached = true })
			break
		}
		mux.Begin()
		work := false
		for i, st := range steppers {
			if st == nil || res.members[i].err != nil {
				continue
			}
			if st.Resolved() && st.Done() {
				continue
			}
			probeBuf = st.Propose(probeBuf[:0])
			mux.Add(probeBuf)
			work = true
		}
		if !resolved {
			mux.AddTop(hi)
			if needSum {
				mux.AddSum()
			}
			work = true
		}
		if !work {
			break
		}
		mux.Sweep(core.Linear)
		if !resolved {
			resolved = true
			res.n, _ = mux.Top()
			if needSum {
				res.sum, _ = mux.Sum()
			}
			if res.n == 0 {
				res.sweeps, res.probes = mux.Sweeps, mux.ProbesShipped
				return steppers, nil, core.ErrEmpty
			}
			for i, st := range steppers {
				if st == nil || res.members[i].err != nil {
					continue
				}
				if err := st.ResolveN(res.n); err != nil {
					res.members[i].err = err
					steppers[i] = nil
				}
			}
		}
		// Every count is a global fact about the one shared multiset, so
		// the full merged chain feeds every member: probes contributed by
		// one query narrow the others' intervals too.
		ts, cs := mux.Thresholds(), mux.Counts()
		for i, st := range steppers {
			if st != nil && res.members[i].err == nil && !st.Done() {
				st.Observe(ts, cs)
			}
		}
		if mux.Sweeps > core.MaxSelectSweeps {
			finish(func(r *memberResult) { r.err = core.ErrNoConverge })
			break
		}
	}
	res.sweeps, res.probes = mux.Sweeps, mux.ProbesShipped

	for i := range members {
		r := &res.members[i]
		if r.err != nil || r.detached {
			continue
		}
		if st := steppers[i]; st != nil {
			r.values = st.Values(make([]uint64, 0, st.NumRanks()))
			r.seededSweeps = st.SeededSweeps()
			r.seedHit = st.SeedHit()
			continue
		}
		r.aggValues = aggValues(members[i].aggs, &res.fact21)
	}
	return steppers, nil, nil
}

// aggValues reads an aggregate member's answers, aligned with aggs, off
// the totals.
func aggValues(aggs []string, f *fact21) []float64 {
	out := make([]float64, len(aggs))
	for i, a := range aggs {
		out[i] = f.aggregate(a)
	}
	return out
}

// fuseKey groups fusable jobs: same normalized deployment, same run seed
// (so a structural fault plan derived from the run seed crashes the same
// nodes for every member, and the one shared fork is bit-identical to each
// member's solo fork), and the same epoch overlay (same *Overlay pointer —
// different overlays mean different multisets, which must never share a
// probe plane).
type fuseKey struct {
	spec    Spec
	seed    uint64
	overlay *Overlay
}

// plan is how one Submit executes its jobs.
type plan struct {
	// units are the execution units, each one solo job or the fusion group
	// of one fuseKey, dispatched to the worker pool as wholes. Results are
	// written back by original job index, so fusion never reorders them.
	units [][]int
	// twin[i] is the job whose execution answers job i: i itself, or an
	// earlier job equal to it — same fuseKey, same resolved query — which
	// makes job i a twin that joins no unit. nil while no job has a twin.
	twin []int
	// audits are the byz audits robust jobs share, by job index.
	audits map[int]*auditOnce
	fuse   bool
}

// planUnits plans jobs: twins first, then units over the distinct jobs.
// Robust jobs under an adversary that agree on fuseKey and sketch precision
// share one audit and cross-check; a job without such a partner audits alone.
func planUnits(jobs []Job, fuse bool) plan {
	p := plan{units: make([][]int, 0, len(jobs)), fuse: fuse}
	for i := range jobs {
		b := &jobs[i]
		key := fuseKey{spec: b.Spec.Normalize(), seed: b.runSeed(), overlay: b.Overlay}
		if _, j := p.planned(jobs, key, func(a *Job) bool { return sameQuery(a.Query, b.Query) }); j >= 0 {
			if p.twin == nil {
				p.twin = make([]int, len(jobs))
				for k := range p.twin {
					p.twin[k] = k
				}
			}
			p.twin[i] = j
			continue
		}
		if b.Query.Robust && b.Spec.Faults.Byz > 0 {
			if _, j := p.planned(jobs, key, func(a *Job) bool {
				return a.Query.Robust && a.Query.WithDefaults().SketchP == b.Query.WithDefaults().SketchP
			}); j >= 0 {
				if p.audits == nil {
					p.audits = make(map[int]*auditOnce)
				}
				if p.audits[j] == nil {
					p.audits[j] = new(auditOnce)
				}
				p.audits[i] = p.audits[j]
			}
		}
		if u, _ := p.planned(jobs, key, p.fused); u >= 0 && p.fused(b) {
			p.units[u] = append(p.units[u], i) // into key's fusion group
		} else {
			p.units = append(p.units, []int{i})
		}
	}
	return p
}

// planned returns the unit and the first planned job on key that same
// accepts, or -1, -1.
func (p *plan) planned(jobs []Job, key fuseKey, same func(*Job) bool) (int, int) {
	for u, idxs := range p.units {
		for _, j := range idxs {
			if a := &jobs[j]; a.Overlay == key.overlay && same(a) && a.runSeed() == key.seed && a.Spec.Normalize() == key.spec {
				return u, j
			}
		}
	}
	return -1, -1
}

// fused reports whether job joins its fuseKey's fusion group. Robust jobs
// stay solo: the byz tier aggregates per sector with its own trimmed plane,
// which the shared probe schedule cannot represent. So do WHERE jobs: each
// filters its own multiset.
func (p plan) fused(job *Job) bool {
	return p.fuse && kindOf(job.Query.Kind).member != nil && !job.Query.Robust && job.Query.Where == nil
}

// answers is the number of jobs job j's execution answers: j and its twins.
func (p plan) answers(j int) int {
	n := 1
	for _, of := range p.twin[min(j+1, len(p.twin)):] {
		if of == j {
			n++
		}
	}
	return n
}

// batch reports whether unit u runs as a fusion batch: a fusion group that
// answers two jobs or more, twins included — a statement asked twice is a
// batch of one member.
func (p plan) batch(jobs []Job, u []int) bool {
	return len(u) > 1 || p.fused(&jobs[u[0]]) && p.answers(u[0]) > 1
}

// runUnit executes one unit, writing results by original job index.
func (e *Engine) runUnit(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) {
	if !p.batch(jobs, idxs) {
		results[idxs[0]] = e.runOne(ctx, jobs[idxs[0]], p.audits[idxs[0]])
		return
	}
	solo := e.runFusedGroup(ctx, jobs, p, idxs, results)
	if sk := obs.Active(); sk != nil && len(solo) > 0 {
		sk.FusionSolo.Add(int64(len(solo)))
	}
	for _, i := range solo {
		// Detached or unfusable members finish solo with their own full
		// deadline: fusion must never fail a query that would have
		// succeeded alone. (Robust jobs never fuse, so no audit to share.)
		results[i] = e.runOne(ctx, jobs[i], nil)
	}
}

// sameQuery reports whether two queries are field-for-field equal once
// resolved: jobs on one fuseKey for which it holds are one statement asked
// more than once, and run once. Only queries of one kind resolve (a fused
// query's defaults allocate).
func sameQuery(a, b Query) bool {
	if a.Kind != b.Kind {
		return false
	}
	a, b = a.WithDefaults(), b.WithDefaults()
	return a.Kind == b.Kind && a.K == b.K && a.Phi == b.Phi && a.Eps == b.Eps && a.Beta == b.Beta &&
		a.SketchP == b.SketchP && a.Where == b.Where && a.ProbeWidth == b.ProbeWidth &&
		a.Robust == b.Robust && slices.Equal(a.Phis, b.Phis) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.SeedWindows, b.SeedWindows)
}

// runFusedGroup executes a fusion group on one forked network and writes
// member results by original index. It returns the indices that must
// finish solo: members whose parameters need the solo error path, members
// the deadline detached, and — on a panic before every member's answer is
// assembled — the whole group. A panicking batch skips the pool release,
// like a panicking solo run.
func (e *Engine) runFusedGroup(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) (solo []int) {
	spec := jobs[idxs[0]].Spec.Normalize()
	start := time.Now()
	var deadline time.Time
	if e.timeout > 0 {
		deadline = start.Add(e.timeout)
	}
	settled := false // every member's result is assembled and final
	defer func() {
		if r := recover(); r != nil && !settled {
			solo = append(solo[:0], idxs...)
		}
	}()

	// failAll fails every member before any was answered.
	failAll := func(err error) []int {
		for _, i := range idxs {
			results[i] = failedResult(jobs[i], err)
		}
		return nil
	}
	if err := ctx.Err(); err != nil {
		return failAll(err)
	}
	nw, err := e.fork(spec, &jobs[idxs[0]])
	if err != nil {
		return failAll(err)
	}
	before := nw.Meter.Snapshot()
	fe, hr, err := spantree.NewFastHealed(nw)
	if err != nil {
		nw.Release()
		return failAll(err)
	}
	fe.SetWorkers(e.treeWorkers)
	truth := &groundTruth{nw: nw, view: fe.View()}

	// One member per job: the group holds no twins, so members[k] is job
	// idxs[k] once the jobs whose slots fail move behind the members. The
	// batch's size counts the twins its members answer.
	queries := make([]Query, 0, len(idxs))
	members := make([]member, 0, len(idxs))
	batch := 0
	for k, ji := range idxs {
		q := jobs[ji].Query.WithDefaults()
		mb, err := kindOf(q.Kind).slot(q, truth.count())
		if err != nil {
			solo = append(solo, ji)
			continue
		}
		idxs[k], idxs[len(members)] = idxs[len(members)], ji
		queries, members = append(queries, q), append(members, mb)
		batch += p.answers(ji)
	}
	if batch < 2 {
		// A batch of one has nothing to share; its solo run is the same
		// protocol without the fusion bookkeeping.
		nw.Release()
		return append(solo, idxs[:len(members)]...)
	}

	o, err := e.runBatch(ctx, nw, spec, fe, queries, members, outcome{hr: hr, truth: truth}, deadline)
	d := nw.Meter.Since(before)
	wall := time.Since(start)
	if err != nil {
		// Batch-impossible (empty active multiset): every member reports
		// it through its own solo path.
		nw.Release()
		return append(solo, idxs[:len(members)]...)
	}

	shared := fusedDetail(batch, o.res.sweeps)
	sk := obs.Active()
	var span uint64
	if sk != nil {
		span = sk.Tracer.NextSpan()
	}
	detached := 0
	for mi, ji := range idxs[:len(members)] {
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
			continue
		}
		r := resultFrom(spec, queries[mi], o.answer(&members[mi], mr, shared), d, wall)
		r.ID = jobs[ji].ID
		r.Fused = true
		r.SharedSweeps = o.res.sweeps
		r.SeededSweeps = mr.seededSweeps
		r.SeedHit = mr.seedHit
		results[ji] = r
	}
	settled = true
	if sk != nil {
		e.obsFusedBatch(sk, span, jobs[idxs[0]], batch, detached, o.res.sweeps, o.res.probes, d, wall)
	}
	nw.Release()
	return solo
}

// groundTruth is the simulator-side truth over the original readings of the
// nodes a run's view covers that match its WHERE predicate (nil: all),
// derived from the run network on demand: size
// and Fact 2.1 aggregates from one walk of view.Order (storage order on the
// full view), order statistics and distinct count from one materialization
// sorted in place. A fused batch pays for each at most once, a kind that
// reads neither pays nothing, and since no protocol changes a view or Orig,
// it may be read after the query ran.
type groundTruth struct {
	nw     *netsim.Network
	view   *spantree.TreeView
	where  *wire.Pred
	walked bool
	fact21
	pop []uint64 // the population, ascending; nil until first use
}

// totals returns g with the population's size, Σ, min and max computed.
func (g *groundTruth) totals() *groundTruth {
	if !g.walked {
		g.walked, g.lo = true, ^uint64(0)
		for _, u := range g.view.Order {
			for _, it := range g.nw.Nodes[u].Items {
				if g.where != nil && !g.where.Eval(it.Orig) {
					continue
				}
				g.n++
				g.sum += it.Orig
				g.lo, g.hi = min(g.lo, it.Orig), max(g.hi, it.Orig)
			}
		}
	}
	return g
}

// count is the population size.
func (g *groundTruth) count() uint64 { return g.totals().n }

// sorted returns the population in ascending order.
func (g *groundTruth) sorted() []uint64 {
	if g.pop == nil {
		g.pop = make([]uint64, 0, g.nw.NumItems())
		for _, u := range g.view.Order {
			for _, it := range g.nw.Nodes[u].Items {
				if g.where == nil || g.where.Eval(it.Orig) {
					g.pop = append(g.pop, it.Orig)
				}
			}
		}
		core.Sort(g.pop)
	}
	return g.pop
}

// distinct is the number of distinct readings in the population.
func (g *groundTruth) distinct() (d uint64) {
	for i, v := range g.sorted() {
		if i == 0 || v != g.pop[i-1] {
			d++
		}
	}
	return d
}

// f2 is the population's second frequency moment Σ f².
func (g *groundTruth) f2() (f2 float64) {
	run := 0.0
	for i, v := range g.sorted() {
		if i > 0 && v != g.pop[i-1] {
			f2, run = f2+run*run, 0
		}
		run++
	}
	return f2 + run*run
}

// aggregate is the truth of one Fact 2.1 aggregate (count|sum|min|max|avg).
func (g *groundTruth) aggregate(name string) float64 { return g.totals().fact21.aggregate(name) }

// fusedDetail is the part of Result.Detail every member of a batch shares.
func fusedDetail(batch, sweeps int) string {
	return fmt.Sprintf("fused batch of %d: %d shared k-ary sweeps", batch, sweeps)
}
