package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// This file is the unit runner and the fusion scheduler. A Submit's jobs
// are planned into units: a job alone, or — under WithFusion — the fusion
// group of fusable jobs (selections, multi-quantiles, the Fact 2.1
// aggregates) on one deployment, run seed and overlay. Every unit runs
// through one body, execute, run inline by one dispatcher, runUnit: fork,
// heal, one ground truth and one plane, every member's slot, one batch, one
// assembly, release. Submit's context stops a unit at its next sweep or
// round (netsim.Network.Ctx), set after the heal and the robust audit. A
// unit of one is that body with one member; a batch's members share one
// core.Plane (driveFused), whose sweep rounds merge their probe thresholds
// into one deduplicated chain per broadcast–convergecast, aggregate members
// riding the MinMax round and the first sweep: tree traffic is paid once a
// round.
//
// Fusion preserves answers exactly: selection is an exact search whose
// result does not depend on the probe schedule, and the aggregate riders
// compute the same exact totals the standalone protocols do, so a fused
// member's values and truths equal its solo run's for reliable networks
// and structural fault plans (the tree heals once per batch). Drop/dup
// plans corrupt traffic by delivery sequence, which fusion changes: fused
// answers under them are deterministic but may differ from solo ones,
// exactly as the search at one probe width may differ from another.

// memberResult is one member's outcome.
type memberResult struct {
	// values are a selection member's order statistics, one per rank.
	values []uint64
	// aggValues are an aggregate member's answers, aligned with its aggs.
	aggValues []float64
	// err reports a per-member failure (unresolvable rank, the context's
	// stop) — the same error the member's solo run would report.
	err error
	// seededSweeps/seedHit report a seeded selection member's
	// delta-narrowing outcome (see core.SelectStepper).
	seededSweeps int
	seedHit      bool
	// st is a selection member's search: after a killed attempt, its last
	// consistent intervals are the resumed attempt's seed windows.
	st *core.SelectStepper
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

// driveFused runs one batch attempt on one core.Plane over net, plain or
// robust: the members' searches and aggregate riders share its MinMax
// round and sweeps, and each member's search and answer go into its result
// in res. A sweep a mid-flight fault killed — the tree layer panics with
// it — comes back as ise, with the extrema, the first sweep's totals and
// the sweeps the plane had run; ctx's stop fails the members it left
// unanswered with ctx's error, and any other panic propagates.
func driveFused(ctx context.Context, net core.Net, members []member, res *batchResult) (ise *spantree.IncompleteSweepError, err error) {
	var plane core.Plane
	// The plane's view of the searches; a small batch's stays on the stack.
	steppers := make([]*core.SelectStepper, 0, 8)
	for i := range members {
		if mb, r := &members[i], &res.members[i]; len(mb.ranks) > 0 {
			r.st = core.NewSelectStepper(mb.ranks, mb.width)
			r.st.SeedHints(mb.seeds)
		} else {
			plane.Sum = plane.Sum || slices.Contains(mb.aggs, "sum") || slices.Contains(mb.aggs, "avg")
		}
		steppers = append(steppers, res.members[i].st)
	}
	plane.Reject = func(i int, err error) { res.members[i].err = err }
	ise, err = drive(ctx, &plane, net, steppers)
	res.fact21 = fact21{n: plane.N, sum: plane.Total, lo: plane.Lo, hi: plane.Hi}
	res.sweeps, res.probes = plane.Sweeps, plane.Probes
	if ise != nil {
		return ise, nil
	}
	if errors.Is(err, core.ErrEmpty) {
		return nil, err
	}
	for i := range members {
		r, st := &res.members[i], steppers[i]
		switch {
		case r.err != nil:
		case err != nil && (st != nil && !st.Done() || st == nil && plane.Sweeps == 0):
			// The batch abandons what it had not answered; members that
			// resolved keep their answers.
			r.err = err
		case st != nil:
			r.values = st.Values(make([]uint64, 0, st.NumRanks()))
			r.seededSweeps, r.seedHit = st.SeededSweeps(), st.SeedHit()
		default:
			r.aggValues = aggValues(nil, members[i].aggs, &res.fact21)
		}
	}
	return nil, nil
}

// drive runs plane over net for steppers. A sweep the tree layer panicked
// with comes back: a dead sweep as ise, ctx's stop as ctx's error. Any
// other panic propagates.
func drive(ctx context.Context, plane *core.Plane, net core.Net, steppers []*core.SelectStepper) (ise *spantree.IncompleteSweepError, err error) {
	defer func() {
		if r := recover(); r != nil {
			var killed *spantree.IncompleteSweepError
			switch e, ok := r.(error); {
			case ok && errors.As(e, &killed):
				ise = killed
			case ok && isStop(ctx, e):
				err = ctx.Err()
			default:
				panic(r)
			}
		}
	}()
	return nil, plane.Drive(net, steppers)
}

// isStop reports whether err is ctx's stop: ctx is done, and err is or
// wraps its error.
func isStop(ctx context.Context, err error) bool {
	stop := ctx.Err()
	return stop != nil && errors.Is(err, stop)
}

// aggValues appends an aggregate member's answers, aligned with aggs,
// read off the totals, to dst.
func aggValues(dst []float64, aggs []string, f *fact21) []float64 {
	dst = slices.Grow(dst, len(aggs))
	for _, a := range aggs {
		dst = append(dst, f.aggregate(a))
	}
	return dst
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
	fuse bool
	// team is the tree-kernel team size of every unit (Engine.teamSize).
	team int
}

// planUnits plans jobs: twins first, then units over the distinct jobs.
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

// runUnit runs one unit inline, writing results by original job index. A
// unit that finds ctx done before it starts fails its jobs with the
// context error, as a stop mid-run fails each job it left unanswered. A
// unit of one that panicked fails in place; a group's panicked or
// empty-batch members run again as units of one: fusion must never fail a
// query that would have succeeded alone.
func (e *Engine) runUnit(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) {
	if err := ctx.Err(); err != nil {
		fail(jobs, idxs, results, err)
		return
	}
	group, one := p.batch(jobs, idxs), plan{team: p.team} // a unit of one counts no twins
	if !group {
		p = one
	}
	var panicked any
	again := func() (again []int) {
		defer func() {
			if panicked = recover(); panicked != nil {
				again = idxs
			}
		}()
		return e.execute(ctx, jobs, p, idxs, results)
	}()
	if !group {
		switch err, _ := panicked.(error); {
		case isStop(ctx, err):
			results[idxs[0]] = failedResult(jobs[idxs[0]], ctx.Err())
		case panicked != nil:
			results[idxs[0]] = failedResult(jobs[idxs[0]], fmt.Errorf("engine: query panicked: %v", panicked))
		}
		return
	}
	if sk := obs.Active(); sk != nil && len(again) > 0 {
		sk.FusionSolo.Add(int64(len(again)))
	}
	for k := range again {
		e.runUnit(ctx, jobs, one, again[k:k+1], results)
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
		a.SketchP == b.SketchP && samePred(a.Where, b.Where) && a.ProbeWidth == b.ProbeWidth &&
		a.Robust == b.Robust && slices.Equal(a.Phis, b.Phis) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.SeedWindows, b.SeedWindows)
}

// samePred reports whether two WHERE predicates match the same items: both
// absent, or equal by value however often the statement was parsed.
func samePred(a, b *wire.Pred) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// execute is the unit runner: it forks for the unit idxs, takes the meter
// snapshot, heals and builds the ground truth and plane (prepare), sets
// ctx as the fork's stop when ctx can be done, answers every member
// (answer) and releases the fork. It returns the members that must run
// again as units of one. A panicking unit skips the release: the pool
// never sees a network in an unknown state.
func (e *Engine) execute(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) []int {
	job := &jobs[idxs[0]]
	r := run{spec: job.Spec.Normalize(), q: job.Query.WithDefaults(), start: time.Now()}
	var err error
	if r.nw, err = e.fork(r.spec, job); err == nil {
		r.before = r.nw.Meter.Snapshot()
		if err = e.prepare(&r, p.team); err != nil {
			r.nw.Release()
		}
	}
	if err != nil {
		fail(jobs, idxs, results, err)
		return nil
	}
	if ctx.Done() != nil {
		r.nw.Ctx = ctx
	}
	solo := e.answer(ctx, &r, jobs, p, idxs, results)
	r.nw.Release()
	return solo
}

// answer answers the unit idxs on r's prepared plane, metered with the
// unit's delta. Each job resolves its slot (a failing slot fails its job)
// and the members run as one batch, unless a kind's own arm answers a unit
// of one: a private schedule's solo arm, or an aggregate's alone arm with
// no mid-sweep strike to come. A batch that answers two jobs or more, twins
// counted, is fused. It returns the members of a batch it found empty.
func (e *Engine) answer(ctx context.Context, r *run, jobs []Job, p plan, idxs []int, results []Result) (solo []int) {
	// One member per job: a unit holds no twins, so members[k] is job
	// idxs[k] once the jobs whose slots fail move behind the members. A
	// small unit keeps its members, queries and results on the stack, and
	// an arm's answer (lone, its values in abuf) too: kept off the batch's
	// results, whose errors leave the stack.
	var (
		qbuf  [4]Query
		mbuf  [4]member
		mrbuf [4]memberResult
		lone  memberResult
		abuf  [4]float64
	)
	queries, members := qbuf[:0], mbuf[:0]
	if len(idxs) > len(qbuf) {
		queries, members = make([]Query, 0, len(idxs)), make([]member, 0, len(idxs))
	}
	batch := 0
	for i, ji := range idxs {
		q := r.q
		if i > 0 {
			q = jobs[ji].Query.WithDefaults()
		}
		mb := member{kind: kindOf(q.Kind)}
		if mb.kind.member != nil {
			var err error
			if mb, err = mb.kind.slot(q, r.truth.count()); err != nil {
				results[ji] = failedResult(jobs[ji], err)
				continue
			}
		}
		idxs[i], idxs[len(members)] = idxs[len(members)], ji
		queries, members = append(queries, q), append(members, mb)
		batch += p.answers(ji)
	}
	if len(members) == 0 {
		return nil
	}

	o := outcome{res: batchResult{members: mrbuf[:min(len(members), len(mrbuf))]}, hr: r.heal, truth: &r.truth, team: p.team}
	k, fused, strike := members[0].kind, batch > 1, striking(r.nw)
	arm := k.solo != nil || !fused && k.alone != nil && !strike
	v, detail, err := 0.0, "", error(nil)
	switch {
	case !arm:
		o, err = runBatch(ctx, r.nw, r.spec, r.net, queries, members, o)
	case k.solo != nil:
		v, detail, err = k.solo(*r)
	default:
		var f fact21
		f, o.res.sweeps, detail, err = k.alone(*r)
		lone.aggValues = aggValues(abuf[:0], members[0].aggs, &f)
	}
	if r.truth.where != nil && kindOf(r.q.Kind).where == whereFilter {
		r.net.Reset()
	}
	if err != nil {
		if fused {
			// Nothing to answer on (no survivor to re-heal): each member's
			// own, shorter run may end before the strike.
			return idxs[:len(members)]
		}
		if isStop(ctx, err) {
			err = ctx.Err()
		}
		o.res.members[0].err = err
	}

	d, wall := r.nw.Meter.Since(r.before), time.Since(r.start)
	sk := obs.Active()
	shared := ""
	if fused {
		shared = fusedDetail(batch, o.res.sweeps)
	}
	detached := 0
	for mi, ji := range idxs[:len(members)] {
		mr, m := &o.res.members[mi], &members[mi]
		if mr.err != nil {
			if fused && isStop(ctx, mr.err) {
				detached++
			}
			results[ji] = failedResult(jobs[ji], mr.err)
			continue
		}
		switch {
		case fused:
			detail = o.detail(m, shared)
		case !arm:
			detail = o.soloDetail(m, strike)
		}
		res, answered := &results[ji], mr
		if arm {
			answered = &lone
		}
		*res = Result{ID: jobs[ji].ID, Fused: fused}
		o.answer(res, m, answered, detail)
		if k.solo != nil {
			res.Value, res.Truth, res.TruthKnown = v, k.truth(*r), true
		}
		if r.q.Robust {
			// Audit-phase suspects are historical (cleared or quarantined);
			// trim-phase ones are the live sectors the bound prices.
			integrity := r.net.(*byz.RobustNet).Integrity()
			res.Robust, res.Suspected, res.IntegrityBound = true, len(integrity.Suspected), integrity.BoundItems
			if rep := r.audit; rep != nil {
				res.Suspected += len(rep.Suspected)
				res.Quarantined, res.AuditRounds, res.AuditBits = len(rep.Quarantined), rep.Rounds, rep.AuditBits
			}
			if sk != nil {
				obsRobust(sk, res, integrity)
			}
		}
		if !fused && sk != nil {
			e.obsSoloJob(sk, jobs[ji], d, wall)
		}
		resultFrom(res, r.spec, queries[mi], d, wall)
	}
	if fused && sk != nil {
		e.obsFusedBatch(sk, jobs[idxs[0]], batch, detached, o.res.sweeps, o.res.probes, d, wall)
	}
	return solo
}

// groundTruth is the simulator-side truth over the original readings of the
// nodes a run's view covers that match its WHERE predicate (nil: all),
// derived from the run network on demand: size
// and Fact 2.1 aggregates from one walk of the view's nodes in storage
// order (the network's Tree.Order, whatever view was healed out of it),
// order statistics and distinct count from one materialization sorted in
// place. A fused batch pays for each at most once, a kind that
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
		partial := g.partial()
		for _, u := range g.nw.Tree.Order {
			if partial && !g.view.Includes(u) {
				continue
			}
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

// partial reports whether the view leaves nodes out, so a walk must look
// each node up.
func (g *groundTruth) partial() bool { return len(g.view.Order) != len(g.nw.Tree.Order) }

// count is the population size.
func (g *groundTruth) count() uint64 { return g.totals().n }

// sorted returns the population in ascending order.
func (g *groundTruth) sorted() []uint64 {
	if g.pop == nil {
		g.pop = make([]uint64, 0, g.nw.NumItems())
		partial := g.partial()
		for _, u := range g.nw.Tree.Order {
			if partial && !g.view.Includes(u) {
				continue
			}
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
