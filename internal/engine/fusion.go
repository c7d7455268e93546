package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
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
// the tree traffic once per round for the whole batch — the first
// optimization that amortizes sweeps *across* queries rather than within
// one (PR 4 batched the probes within a query).
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
// as the batched probe plane may differ from classic bisection.

// FusedMember is one query's slot in a fusion batch. Exactly one of the
// two forms is used: a selection member carries the ranks its
// SelectStepper narrows (Width probes per sweep), an aggregate member
// names the Fact 2.1 aggregates it reads off the shared rounds
// (count|sum|min|max|avg).
type FusedMember struct {
	Ranks []core.BatchRank
	Width int
	Aggs  []string
	// Seeds are the member's delta-narrowing windows, one per rank (nil or
	// mismatched length → unseeded); see core.SeedWindow.
	Seeds []core.SeedWindow
}

// FusedMemberResult is one member's outcome.
type FusedMemberResult struct {
	// Values are a selection member's order statistics, one per rank.
	Values []uint64
	// AggValues are an aggregate member's answers, aligned with Aggs.
	AggValues []float64
	// Err reports a per-member failure (unresolvable rank, unknown
	// aggregate, context cancellation) — the same error the member's solo
	// run would report.
	Err error
	// Detached marks a member the batch's deadline expired on before its
	// search resolved: it holds no answer and should be re-run solo (the
	// engine gives detached members their own full deadline, so fusing can
	// never fail a query that would have succeeded alone).
	Detached bool
	// SeededSweeps/SeedHit report a seeded selection member's
	// delta-narrowing outcome (see core.SelectStepper).
	SeededSweeps int
	SeedHit      bool
}

// FusedResult reports one executed fusion batch.
type FusedResult struct {
	Members []FusedMemberResult
	// Sweeps is the number of shared probe sweeps the batch executed (the
	// MinMax round is not counted); Probes is the total number of
	// predicates shipped across them. Every member was answered by this
	// one schedule — the numbers fusion compresses.
	Sweeps int
	Probes int
	// N and Sum are the shared all-active count and sum riders (Sum only
	// when some member asked for it); Lo and Hi the shared extrema.
	N, Sum, Lo, Hi uint64
}

// runFused executes members as one fusion batch over net: one MinMax
// round, then shared CountVec sweeps until every member resolves. The
// caller owns net (typically a private forked run network) and its meter.
// A zero deadline disables the mid-batch detach check; ctx cancellation
// fails unresolved members with the context error. The only top-level
// error is an empty active multiset.
func runFused(ctx context.Context, net *agg.Net, members []FusedMember, deadline time.Time) (FusedResult, error) {
	res := FusedResult{Members: make([]FusedMemberResult, len(members))}
	steppers, needSum := buildSteppers(members, &res)
	err := driveFused(ctx, net, members, steppers, needSum, deadline, &res)
	return res, err
}

// buildSteppers constructs each selection member's stepper (seeded from the
// member's windows) and validates aggregate members, reporting whether any
// member needs the shared Sum rider. Per-member validation errors land in
// res.Members. It is split from driveFused so the mid-flight retry loop can
// keep the steppers across a failed drive: their last consistent intervals
// are the checkpoints the resumed attempt seeds from.
func buildSteppers(members []FusedMember, res *FusedResult) (steppers []*core.SelectStepper, needSum bool) {
	steppers = make([]*core.SelectStepper, len(members))
	for i, mb := range members {
		if len(mb.Ranks) > 0 {
			steppers[i] = core.NewSelectStepper(mb.Ranks, mb.Width)
			steppers[i].SeedHints(mb.Seeds)
			continue
		}
		for _, a := range mb.Aggs {
			switch a {
			case "sum", "avg":
				needSum = true
			case "count", "min", "max":
			default:
				res.Members[i].Err = fmt.Errorf("engine: unknown fused aggregate %q (count|sum|min|max|avg)", a)
			}
		}
	}
	return steppers, needSum
}

// driveFused runs the batch's shared probe schedule to completion: one
// MinMax round, then merged CountVec sweeps until every member resolves,
// then per-member answer assembly into res.
func driveFused(ctx context.Context, net *agg.Net, members []FusedMember, steppers []*core.SelectStepper, needSum bool, deadline time.Time, res *FusedResult) error {
	lo, hi, ok := net.MinMax(core.Linear)
	if !ok {
		return core.ErrEmpty
	}
	res.Lo, res.Hi = lo, hi
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
	// through to the assembly loop below, never out of runFused early —
	// a member is always either answered, failed, or detached.
	finish := func(mark func(r *FusedMemberResult)) {
		for i := range members {
			r := &res.Members[i]
			if r.Err != nil {
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
			finish(func(r *FusedMemberResult) { r.Err = err })
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			finish(func(r *FusedMemberResult) { r.Detached = true })
			break
		}
		mux.Begin()
		work := false
		for i, st := range steppers {
			if st == nil || res.Members[i].Err != nil {
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
			res.N, _ = mux.Top()
			if needSum {
				res.Sum, _ = mux.Sum()
			}
			if res.N == 0 {
				res.Sweeps, res.Probes = mux.Sweeps, mux.ProbesShipped
				return core.ErrEmpty
			}
			for i, st := range steppers {
				if st == nil || res.Members[i].Err != nil {
					continue
				}
				if err := st.ResolveN(res.N); err != nil {
					res.Members[i].Err = err
					steppers[i] = nil
				}
			}
		}
		// Every count is a global fact about the one shared multiset, so
		// the full merged chain feeds every member: probes contributed by
		// one query narrow the others' intervals too.
		ts, cs := mux.Thresholds(), mux.Counts()
		for i, st := range steppers {
			if st != nil && res.Members[i].Err == nil && !st.Done() {
				st.Observe(ts, cs)
			}
		}
		if mux.Sweeps > core.MaxSelectSweeps {
			finish(func(r *FusedMemberResult) { r.Err = core.ErrNoConverge })
			break
		}
	}
	res.Sweeps, res.Probes = mux.Sweeps, mux.ProbesShipped

	for i, mb := range members {
		r := &res.Members[i]
		if r.Err != nil || r.Detached {
			continue
		}
		if st := steppers[i]; st != nil {
			r.Values = st.Values(make([]uint64, 0, st.NumRanks()))
			r.SeededSweeps = st.SeededSweeps()
			r.SeedHit = st.SeedHit()
			continue
		}
		r.AggValues = aggValues(mb.Aggs, res)
	}
	return nil
}

// aggValues reads an aggregate member's answers, aligned with aggs, off the
// batch's shared riders (avg over an empty count reads 0).
func aggValues(aggs []string, res *FusedResult) []float64 {
	out := make([]float64, len(aggs))
	for i, a := range aggs {
		switch a {
		case "count":
			out[i] = float64(res.N)
		case "sum":
			out[i] = float64(res.Sum)
		case "min":
			out[i] = float64(res.Lo)
		case "max":
			out[i] = float64(res.Hi)
		case "avg":
			if res.N > 0 {
				out[i] = float64(res.Sum) / float64(res.N)
			}
		}
	}
	return out
}

// fusableKind reports whether a query kind can join a fusion batch: the
// exact selection family (driven by SelectStepper) and the Fact 2.1
// aggregates (answered by the shared MinMax round, the chain's top probe,
// and the CountVecSum rider). Randomized, sketch, gossip, radio, and
// statement kinds keep their private schedules.
func fusableKind(kind string) bool {
	switch kind {
	case KindMedian, KindOrderStat, KindQuantile, KindQuantiles,
		KindFused, KindMin, KindMax, KindCount, KindSum, KindAvg:
		return true
	}
	return false
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

// planUnits partitions jobs into execution units: a unit is either one
// solo job or a fusion batch of ≥2 compatible jobs. Units are dispatched
// to the worker pool as wholes; results are always written back by
// original job index, so fusion never reorders a batch's results.
func planUnits(jobs []Job, fuse bool) [][]int {
	units := make([][]int, 0, len(jobs))
	groups := make(map[fuseKey]int)
	for i := range jobs {
		// Robust jobs stay solo: the byz tier aggregates per sector with
		// its own trimmed plane, which the shared probe schedule cannot
		// represent.
		if !fuse || !fusableKind(jobs[i].Query.Kind) || jobs[i].Query.Robust {
			units = append(units, []int{i})
			continue
		}
		key := fuseKey{spec: jobs[i].Spec.Normalize(), seed: jobs[i].runSeed(), overlay: jobs[i].Overlay}
		if u, ok := groups[key]; ok {
			units[u] = append(units[u], i)
		} else {
			groups[key] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
}

// runUnit executes one unit, writing results by original job index.
func (e *Engine) runUnit(ctx context.Context, jobs []Job, idxs []int, audits map[int]*auditOnce, results []Result) {
	if len(idxs) == 1 {
		results[idxs[0]] = e.runOne(ctx, jobs[idxs[0]], audits[idxs[0]])
		return
	}
	if err := ctx.Err(); err != nil {
		for _, i := range idxs {
			results[i] = failedResult(jobs[i], err)
		}
		return
	}
	solo := e.runFusedGroup(ctx, jobs, idxs, results)
	if len(solo) > 0 {
		if sk := obs.Active(); sk != nil {
			sk.FusionSolo.Add(int64(len(solo)))
		}
	}
	for _, i := range solo {
		// Detached or unfusable members finish solo with their own full
		// deadline: fusion must never fail a query that would have
		// succeeded alone. (Robust jobs never fuse, so no audit to share.)
		results[i] = e.runOne(ctx, jobs[i], nil)
	}
}

// fusedMemberFor translates a query into its batch slot, n being the size
// of the population it ranks. ok is false for queries whose parameters the
// solo path would reject (bad phi, unknown aggregate, ...): they fall back
// to solo execution, which reports exactly the error it always has.
func fusedMemberFor(q Query, n uint64) (FusedMember, bool) {
	switch q.Kind {
	case KindMedian:
		return FusedMember{Ranks: []core.BatchRank{{Median: true}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindOrderStat:
		k := q.K
		if k == 0 {
			k = (n + 1) / 2
		}
		return FusedMember{Ranks: []core.BatchRank{{K: k}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindQuantile:
		if q.Phi <= 0 || q.Phi > 1 {
			return FusedMember{}, false
		}
		k := core.QuantileRank(q.Phi, n)
		return FusedMember{Ranks: []core.BatchRank{{K: k}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindQuantiles:
		if len(q.Phis) == 0 {
			return FusedMember{}, false
		}
		ranks := make([]core.BatchRank, len(q.Phis))
		for i, phi := range q.Phis {
			if phi <= 0 || phi > 1 {
				return FusedMember{}, false
			}
			ranks[i] = core.BatchRank{Phi: phi}
		}
		return FusedMember{Ranks: ranks, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindFused:
		for _, a := range q.Aggs {
			switch a {
			case "count", "sum", "min", "max", "avg":
			default:
				return FusedMember{}, false
			}
		}
		return FusedMember{Aggs: q.Aggs}, true
	case KindCount, KindSum, KindMin, KindMax, KindAvg: // named after their aggregate
		return FusedMember{Aggs: []string{q.Kind}}, true
	}
	return FusedMember{}, false
}

// sameQuery reports whether two resolved queries are field-for-field equal:
// the members of one batch for which it holds are one statement asked more
// than once, and share a slot.
func sameQuery(a, b *Query) bool {
	return a.Kind == b.Kind && a.K == b.K && a.Phi == b.Phi && a.Eps == b.Eps && a.Beta == b.Beta &&
		a.SketchP == b.SketchP && a.Statement == b.Statement && a.ProbeWidth == b.ProbeWidth &&
		a.Robust == b.Robust && slices.Equal(a.Phis, b.Phis) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.SeedWindows, b.SeedWindows)
}

// runFusedGroup executes a fusion batch on one forked network and writes
// member results by original index. It returns the indices that must
// finish solo: members whose parameters need the solo error path, members
// the deadline detached, and — on a batch-level panic — every member not
// yet answered. A panicking batch skips the pool release, like a
// panicking solo run.
func (e *Engine) runFusedGroup(ctx context.Context, jobs []Job, idxs []int, results []Result) (solo []int) {
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
	// one slot — one FusedMember, one stepper, one assembled answer: the mux
	// dedups their thresholds anyway, so every bit and sweep is what a slot
	// each would cost. slot[k] is job memberIdx[k]'s (one allocation for both).
	queries := make([]Query, 0, 4)
	members := make([]FusedMember, 0, 4)
	ints := make([]int, 2*len(idxs))
	memberIdx, slot := ints[:0:len(idxs)], ints[len(idxs):][:0]
	for _, ji := range idxs {
		q := jobs[ji].Query.WithDefaults()
		s := 0
		for s < len(queries) && !sameQuery(&queries[s], &q) {
			s++
		}
		if s == len(queries) {
			mb, ok := fusedMemberFor(q, truth.count())
			if !ok {
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

	var fres FusedResult
	var ferr error
	var rout *resilientOutcome
	if plan := nw.Faults; plan != nil && plan.PhaseArmed() {
		// A phased fault plan can kill the batch mid-sweep: drive it
		// through the detect → re-heal → resume loop instead of the plain
		// schedule. Members are rebuilt per attempt inside, because the
		// survivor population (and with it φ-resolved ranks) shrinks.
		rout, ferr = e.resilientFused(ctx, nw, spec, fe, hr, truth, queries, deadline)
		if ferr == nil {
			fres, hr, truth = rout.res, rout.hr, rout.truth
		}
	} else {
		fres, ferr = runFused(ctx, agg.NewNet(fe), members, deadline)
	}
	d := nw.Meter.Since(before)
	wall := time.Since(start)
	if ferr != nil {
		// Batch-impossible (empty active multiset): every member reports
		// it through its own solo path.
		nw.Release()
		return append(solo, memberIdx...)
	}

	// One answer per slot, over one ground truth per batch.
	detail := fusedDetail(len(memberIdx), fres.Sweeps)
	answers := make([]answer, len(members))
	for mi, mr := range fres.Members {
		if mr.Detached || mr.Err != nil {
			continue
		}
		ans := &answers[mi]
		if rout != nil && rout.degraded {
			*ans = degradedAnswer(queries[mi], mr, rout.retries)
		} else {
			*ans = fusedAnswer(queries[mi], mr, fres.Sweeps, detail, truth)
		}
		ans.heal = hr
		if rout != nil {
			ans.retries = rout.retries
			ans.degraded = rout.degraded
			ans.survivorFrac = rout.survivorFrac
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
		mr := fres.Members[mi]
		if mr.Detached {
			detached++
			if sk != nil {
				sk.FusionDetach.Add(1)
				sk.Tracer.Emit("fusion.detach", span,
					obs.KV{K: "job", V: int64(ji)},
					obs.KV{K: "seeded_sweeps", V: int64(mr.SeededSweeps)})
			}
			solo = append(solo, ji)
			continue
		}
		if mr.Err != nil {
			results[ji] = failedResult(jobs[ji], mr.Err)
			written[ji] = true
			continue
		}
		// The slot's query stands in for the job's own, equal field for
		// field: duplicates share its slices like they share the answer's.
		r := resultFrom(spec, queries[mi], answers[mi], d, wall)
		r.ID = jobs[ji].ID
		r.Fused = true
		r.SharedSweeps = fres.Sweeps
		r.SeededSweeps = mr.SeededSweeps
		r.SeedHit = mr.SeedHit
		results[ji] = r
		written[ji] = true
	}
	if sk != nil {
		e.obsFusedBatch(sk, span, jobs[idxs[0]], len(memberIdx), detached, fres.Sweeps, fres.Probes, d, wall)
	}
	nw.Release()
	return solo
}

// groundTruth is the simulator-side truth over the original readings of the
// nodes a run's view covers, derived from the run network on demand: size
// and Fact 2.1 aggregates from one walk of view.Order (storage order on the
// full view), order statistics and distinct count from one materialization
// sorted in place. A fused batch pays for each at most once, a kind that
// reads neither pays nothing, and since no protocol changes a view or Orig,
// it may be read after the query ran.
type groundTruth struct {
	nw             *netsim.Network
	view           *spantree.TreeView
	walked         bool
	n, sum, lo, hi uint64
	pop            []uint64 // the population, ascending; nil until first use
}

// totals returns g with the population's size, Σ, min and max computed.
func (g *groundTruth) totals() *groundTruth {
	if !g.walked {
		g.walked, g.lo = true, ^uint64(0)
		for _, u := range g.view.Order {
			for _, it := range g.nw.Nodes[u].Items {
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
				g.pop = append(g.pop, it.Orig)
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

// aggregate is the truth of one Fact 2.1 aggregate (count|sum|min|max|avg).
func (g *groundTruth) aggregate(name string) float64 {
	g.totals()
	switch name {
	case "count":
		return float64(g.n)
	case "sum":
		return float64(g.sum)
	case "min":
		return float64(g.lo)
	case "max":
		return float64(g.hi)
	}
	return float64(g.sum) / float64(g.n) // avg
}

// fusedDetail is the part of Result.Detail every member of a batch shares.
func fusedDetail(batch, sweeps int) string {
	return fmt.Sprintf("fused batch of %d: %d shared k-ary sweeps", batch, sweeps)
}

// fusedAnswer assembles a member's answer with exactly the value/truth
// semantics of its solo execution in exec.go; only the detail string
// differs (it names the shared schedule, see fusedDetail).
func fusedAnswer(q Query, mr FusedMemberResult, sweeps int, detail string, truth *groundTruth) answer {
	n := truth.count()
	ans := answer{detail: detail, truthKnown: true, sweeps: sweeps}
	switch q.Kind {
	case KindMedian:
		ans.value, ans.truth = float64(mr.Values[0]), float64(core.TrueMedian(truth.sorted()))
	case KindOrderStat, KindQuantile:
		k := q.K
		if q.Kind == KindQuantile {
			k = core.QuantileRank(q.Phi, n)
		} else if k == 0 {
			k = (n + 1) / 2
		}
		ans.detail = fmt.Sprintf("rank %d, %s", k, detail)
		ans.value, ans.truth = float64(mr.Values[0]), float64(core.TrueOrderStatistic(truth.sorted(), int(k)))
	case KindQuantiles:
		ans.detail = fmt.Sprintf("%d quantiles, %s", len(q.Phis), detail)
		for i, v := range mr.Values {
			k := core.QuantileRank(q.Phis[i], n)
			ans.values = append(ans.values, float64(v))
			ans.truths = append(ans.truths, float64(core.TrueOrderStatistic(truth.sorted(), int(k))))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
	case KindFused:
		// Aggregate members: truths mirror exec.go's KindFused/Fact 2.1
		// arithmetic over the surviving items.
		ans.detail = "aggregate rider, " + detail
		for i, a := range q.Aggs {
			ans.values = append(ans.values, mr.AggValues[i])
			ans.truths = append(ans.truths, truth.aggregate(a))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
	default: // a single-aggregate kind, named after its aggregate
		ans.detail = "aggregate rider, " + detail
		ans.value, ans.truth = mr.AggValues[0], truth.aggregate(q.Kind)
	}
	return ans
}

// degradedAnswer assembles a member's best-effort answer after the retry
// budget ran out: the checkpointed bounds stand in for the exact values and
// no truth claim is made (TruthKnown stays false — the population the
// partial sweeps counted over no longer exists).
func degradedAnswer(q Query, mr FusedMemberResult, retries int) answer {
	detail := fmt.Sprintf("degraded: retry budget exhausted after %d attempt(s); best-known bounds", retries+1)
	switch q.Kind {
	case KindMedian, KindOrderStat, KindQuantile:
		return answer{value: float64(mr.Values[0]), detail: detail}
	case KindQuantiles:
		ans := answer{detail: detail}
		for _, v := range mr.Values {
			ans.values = append(ans.values, float64(v))
		}
		ans.value = ans.values[0]
		return ans
	case KindFused:
		ans := answer{detail: detail}
		ans.values = append(ans.values, mr.AggValues...)
		ans.value = ans.values[0]
		return ans
	default:
		return answer{value: mr.AggValues[0], detail: detail}
	}
}
