package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// This file is the unit runner's oracle. At the bottom, verbatim from the
// engine before one body ran every unit, are the two bodies it replaced —
// the fusion-group runner (runFusedGroup) and the solo chain runOne →
// executeJob → execute → runSolo → batchOfOne, with the dispatcher, the
// per-run state and the heal and audit writers they spoke — each prefixed
// "unitOracle". Two adaptations only: runSolo is a function of its kind,
// and the kind table's arms, which now take their run by value, are handed
// the old run's fields (arm). TestUnitRunnerOracle holds Submit to them
// over generated units: every Result equal but for WallNS.

// TestUnitRunnerOracle generates Submits of one to eight jobs on one
// deployment — twins, bad-φ and negative-width members, robust and WHERE
// jobs, kinds with a private schedule — under no plan, crashes and dead
// links, and phased plans at retry budgets 0 and 2, and holds every Result,
// fused and not, to the oracle's: equal but for WallNS. Each side runs on
// an engine of its own, so each audits cold.
func TestUnitRunnerOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 0x0e1))
	plans := []struct {
		name  string
		fs    faults.Spec
		retry Retry
	}{
		{name: "none"},
		{name: "crash+linkfail", fs: faults.Spec{Crash: 0.05, LinkFail: 0.03}},
		{name: "phased/0", fs: faults.Spec{MidAt: 3, MidCrash: 0.1}},
		{name: "phased/2", fs: faults.Spec{Crash: 0.02, MidAt: 2, MidCrash: 0.1}, retry: Retry{Budget: 2}},
		{name: "rootkill/2", fs: faults.Spec{MidAt: 2, MidKillRoot: true}, retry: Retry{Budget: 2}},
	}
	seen := map[string]int{}
	for c := 0; c < 100; c++ {
		pl := plans[c%len(plans)]
		spec := Spec{Topology: []string{"grid", "rgg", "star"}[rng.IntN(3)], N: 48 + rng.IntN(100),
			Workload: []string{"uniform", "zipf"}[rng.IntN(2)], Seed: 1 + rng.Uint64N(1000), Faults: pl.fs, Retry: pl.retry}
		if pl.fs.Active() {
			spec.Faults.Seed = 1 + rng.Uint64N(1000)
		}
		jobs := make([]Job, 1+rng.IntN(8))
		for i := range jobs {
			if i > 0 && rng.IntN(5) == 0 {
				jobs[i] = jobs[rng.IntN(i)] // a twin
			} else {
				jobs[i] = Job{Spec: spec, Query: unitOracleQuery(rng)}
			}
			jobs[i].ID = fmt.Sprintf("j%d", i)
		}
		inGroup := make([]bool, len(jobs)) // a job planned into a fusion group of two or more
		for _, u := range planUnits(jobs, true).units {
			for _, i := range u {
				inGroup[i] = len(u) > 1
			}
		}
		for _, fuse := range []bool{false, true} {
			var opts []SubmitOption
			if fuse {
				opts = append(opts, WithFusion())
			}
			got := New(Options{Workers: 2}).Submit(context.Background(), jobs, opts...)
			want := New(Options{Workers: 2}).unitOracleSubmit(jobs, fuse)
			for i := range jobs {
				label := fmt.Sprintf("case %d (%s, %s, fuse %v) job %d %+v", c, spec.Topology, pl.name, fuse, i, jobs[i].Query)
				g, w := got[i], want[i]
				g.WallNS, w.WallNS = 0, 0
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s:\n got %+v\nwant %+v", label, g, w)
				}
				seen[unitOracleShape(g, fuse && inGroup[i])]++
			}
		}
	}
	// A matrix too tame holds nothing: each shape must occur.
	for _, shape := range []string{"fused", "fused+degraded", "fused+retried", "group+failed", "group+alone", "robust", "degraded", "retried"} {
		if seen[shape] == 0 {
			t.Errorf("no generated job answered as %s (%v)", shape, seen)
		}
	}
}

// unitOracleShape names how r, a job's result, was answered; grouped marks
// a job planned into a fusion group of two or more.
func unitOracleShape(r Result, grouped bool) string {
	switch {
	case r.Fused && r.Degraded:
		return "fused+degraded"
	case r.Fused && r.Retries > 0:
		return "fused+retried"
	case r.Fused:
		return "fused"
	case grouped && r.Failed():
		return "group+failed"
	case grouped:
		return "group+alone"
	case r.Robust:
		return "robust"
	case r.Degraded:
		return "degraded"
	case r.Retries > 0:
		return "retried"
	}
	return "alone"
}

// unitOracleQuery draws one job's query: mostly fusable kinds, some with
// parameters their slot rejects, and robust, WHERE and private-schedule
// jobs, which run as units of one.
func unitOracleQuery(rng *rand.Rand) Query {
	q := []Query{
		{Kind: KindMedian},
		{Kind: KindOrderStat, K: uint64(rng.IntN(40))},
		{Kind: KindQuantile, Phi: []float64{0.1, 0.5, 0.9, 2, 0}[rng.IntN(5)]},
		{Kind: KindQuantiles, Phis: [][]float64{{0.25, 0.75}, {0.1, 0.5, 0.99}, {0.5, -1}}[rng.IntN(3)]},
		{Kind: KindCount}, {Kind: KindSum}, {Kind: KindMin}, {Kind: KindMax}, {Kind: KindAvg},
		{Kind: KindFused}, {Kind: KindFused, Aggs: []string{"avg", "max"}}, {Kind: KindFused, Aggs: []string{"mode"}},
		{Kind: KindMedian, Robust: true}, {Kind: KindCount, Robust: true}, {Kind: KindFused, Robust: true},
		{Kind: KindCount, Where: &wire.Pred{Kind: wire.PredLess, A: 1 + rng.Uint64N(200)}},
		{Kind: KindMedian, Where: &wire.Pred{Kind: wire.PredGreaterEq, A: rng.Uint64N(100)}},
		{Kind: KindDistinct}, {Kind: KindApxMedian}, {Kind: KindQDigest}, {Kind: KindGossip},
	}[rng.IntN(21)]
	if len(q.Phis) > 0 || q.Kind == KindMedian || q.Kind == KindOrderStat || q.Kind == KindQuantile {
		q.ProbeWidth = []int{0, 1, 3, 8, -1}[rng.IntN(5)]
	}
	return q
}

// unitOracleSubmit is Submit with the oracle's dispatcher: the same plan,
// team and twin copies, its units run one after another.
func (e *Engine) unitOracleSubmit(jobs []Job, fuse bool) []Result {
	results := make([]Result, len(jobs))
	p := planUnits(jobs, fuse)
	p.team = e.teamSize(len(p.units))
	defer e.session.pinAudits(jobs)()
	for _, u := range p.units {
		e.unitOracleRunUnit(context.Background(), jobs, p, u, results)
	}
	for i, j := range p.twin {
		if i != j {
			results[i] = results[j]
			results[i].ID = jobs[i].ID
		}
	}
	return results
}

// arm is the run the kind table's arms answer over.
func (r *unitOracleRun) arm() run {
	return run{nw: r.nw, spec: r.spec, q: r.q, fe: r.fe, net: r.net, truth: r.truth}
}

// The oracle: the unit bodies from before the unit runner, verbatim but
// for the "unitOracle" prefix and the two adaptations above.

// unitOracleRunUnit executes one unit, writing results by original job index.
func (e *Engine) unitOracleRunUnit(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) {
	if !p.batch(jobs, idxs) {
		results[idxs[0]] = e.unitOracleRunOne(ctx, jobs[idxs[0]], p.team)
		return
	}
	solo := e.unitOracleRunFusedGroup(ctx, jobs, p, idxs, results)
	if sk := obs.Active(); sk != nil && len(solo) > 0 {
		sk.FusionSolo.Add(int64(len(solo)))
	}
	for _, i := range solo {
		// Detached or unfusable members finish solo with their own full
		// deadline: fusion must never fail a query that would have
		// succeeded alone.
		results[i] = e.unitOracleRunOne(ctx, jobs[i], p.team)
	}
}

// unitOracleRunFusedGroup executes a fusion group on one forked network and writes
// member results by original index. It returns the indices that must
// finish solo: members whose parameters need the solo error path, members
// the deadline detached, and — on a panic before every member's answer is
// assembled — the whole group. A panicking batch skips the pool release,
// like a panicking solo run.
func (e *Engine) unitOracleRunFusedGroup(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) (solo []int) {
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
	fe.SetWorkers(p.team)
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

	o, err := runBatch(ctx, nw, spec, agg.NewNet(fe), queries, members, outcome{hr: hr, truth: truth, team: p.team}, deadline)
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
		r, m := &results[ji], &members[mi]
		*r = Result{ID: jobs[ji].ID, Fused: true}
		o.answer(r, m, mr, o.detail(m, shared))
		resultFrom(r, spec, queries[mi], d, wall)
	}
	settled = true
	if sk != nil {
		e.obsFusedBatch(sk, span, jobs[idxs[0]], batch, detached, o.res.sweeps, o.res.probes, d, wall)
	}
	nw.Release()
	return solo
}

// unitOracleRunOne forks a per-run network off the session cache and executes the
// query on a tree-kernel team of the given size, enforcing its deadline.
func (e *Engine) unitOracleRunOne(ctx context.Context, job Job, team int) Result {
	if err := ctx.Err(); err != nil {
		return failedResult(job, err)
	}
	start := time.Now()
	done := make(chan Result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- failedResult(job, fmt.Errorf("engine: query panicked: %v", r))
			}
		}()
		done <- e.unitOracleExecuteJob(job.Spec.Normalize(), job, team)
	}()

	var deadline <-chan time.Time
	if e.timeout > 0 {
		t := time.NewTimer(e.timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case r := <-done:
		// A result and an expired timer can both be ready; the clock, not
		// select's coin, decides which one the caller sees.
		if e.timeout > 0 && time.Since(start) >= e.timeout {
			break
		}
		return r
	case <-ctx.Done():
		return failedResult(job, ctx.Err())
	case <-deadline:
	}
	return failedResult(job, fmt.Errorf("engine: query exceeded %v deadline", e.timeout))
}

// unitOracleExecuteJob is the deadline-free body of a run: instantiate, execute,
// meter. It runs against a private forked network, so even when unitOracleRunOne has
// already given up on it, it cannot disturb any other run; the network
// goes back to the session's fork pool only once the run has fully
// finished with it (an abandoned run releases late, never early). A
// panicking query skips the release — the pool never sees a network in an
// unknown state.
func (e *Engine) unitOracleExecuteJob(spec Spec, job Job, team int) Result {
	start := time.Now()
	nw, err := e.fork(spec, &job)
	if err != nil {
		return failedResult(job, err)
	}
	before := nw.Meter.Snapshot()
	r := Result{ID: job.ID}
	if err := e.unitOracleExecute(nw, spec, job.Query, team, &r); err != nil {
		nw.Release()
		return failedResult(job, err)
	}
	d := nw.Meter.Since(before)
	wall := time.Since(start)
	if sk := obs.Active(); sk != nil {
		e.obsSoloJob(sk, job, d, wall)
	}
	resultFrom(&r, spec, job.Query, d, wall)
	nw.Release()
	return r
}

// unitOracleExecute runs q against the per-run network nw and writes its answer
// into res. The network must be private to this run: execute mutates node
// items (zoom/filter stages) and charges the meter freely.
//
// A spec with an active fault plan reshapes the run: the plan attached to
// the network (Session.Instantiate forks it from the run seed) is checked
// against the kind, structural faults trigger a spantree.HealRerooted
// repair whose traffic is charged to the meter before the query runs, and
// the simulator-side ground truth shrinks to the surviving, reconnected
// nodes — the population the healed tree can actually aggregate. team is
// the tree-kernel team size (spantree.FastEngine.SetWorkers).
func (e *Engine) unitOracleExecute(nw *netsim.Network, spec Spec, q Query, team int, res *Result) error {
	q = q.WithDefaults()
	k := kindOf(q.Kind)
	if q.Where != nil {
		where, err := k.whereFor(q, nw.MaxX)
		if err != nil {
			return err
		}
		q.Where = &where
	}

	if p := nw.Faults; p != nil && p.Active() {
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

	r := &unitOracleRun{nw: nw, spec: spec, q: q, team: team}
	var heal *spantree.HealResult
	if k.tree {
		var err error
		if r.fe, heal, err = spantree.NewFastHealed(nw); err != nil {
			return err
		}
	} else {
		// Gossip/radio kinds never touch the tree: no repair runs, so their
		// cost is purely the protocol's own traffic.
		r.fe = spantree.NewFast(nw)
	}
	r.fe.SetWorkers(team)
	r.truth = groundTruth{nw: nw, view: r.fe.View(), where: q.Where}
	if !q.Robust {
		net := agg.NewNet(r.fe, agg.WithSketchP(q.SketchP))
		if q.Where != nil && k.where == whereFilter {
			net.Filter(*q.Where)
			defer net.Reset()
		}
		r.net = net
		return unitOracleRunSolo(k, r, heal, res)
	}
	// A robust job runs on the byz tier (Session.audit): lying subtrees are
	// quarantined and the trimmed plane cross-checked against the sketch,
	// then the kind answers over the RobustNet on the re-derived view.
	if !k.robust {
		return fmt.Errorf("engine: %s does not support robust mode (exact aggregate kinds only)", k.name)
	}
	rep, rnet, err := e.session.audit(nw, spec, r.fe.View(), q.SketchP)
	if err != nil {
		return err
	}
	if rep != nil && rep.Healed != nil {
		heal = rep.Healed
		r.truth = groundTruth{nw: nw, view: rep.Healed.View}
	}
	r.net = rnet
	if err := unitOracleRunSolo(k, r, heal, res); err != nil {
		return err
	}
	integrity := rnet.Integrity()
	unitOracleAudited(res, rep, integrity)
	if sk := obs.Active(); sk != nil {
		obsRobust(sk, res, integrity)
	}
	return nil
}

// unitOracleHealed writes the fault impact of hr, the heal that shaped a run's final
// view (nil: none ran), into res.
func unitOracleHealed(res *Result, hr *spantree.HealResult) {
	if hr != nil {
		res.Crashed, res.Unreachable, res.RepairBits = hr.Crashed, hr.Unreachable, hr.Repair.TotalBits
	}
}

// unitOracleAudited writes a robust run's byz-tier outcome into res: rep, the
// localization report (nil when no adversary was planned), and integrity,
// the aggregation plane's accounting. Audit-phase suspects and trim-phase
// suspects are disjoint evidence: the former are historical (cleared or
// quarantined by the time the query ran), the latter are the live sectors
// the bound prices.
func unitOracleAudited(res *Result, rep *byz.Report, integrity byz.Integrity) {
	res.Robust = true
	res.Suspected = len(integrity.Suspected)
	res.IntegrityBound = integrity.BoundItems
	if rep != nil {
		res.Suspected += len(rep.Suspected)
		res.Quarantined = len(rep.Quarantined)
		res.AuditRounds = rep.Rounds
		res.AuditBits = rep.AuditBits
	}
}

// run is the prepared execution state a solo job dispatches over, and the
// sweeps an aggregate kind's plane ran.
type unitOracleRun struct {
	nw     *netsim.Network
	spec   Spec
	q      Query
	fe     *spantree.FastEngine
	net    aggregator
	truth  groundTruth
	team   int // the tree-kernel team size
	sweeps int
	one    [1]float64 // a single-aggregate kind's answer, as its slot's result
}

// unitOracleRunSolo answers r's query alone on its prepared plane into res, behind
// heal, the repair that shaped r's view: a fusable kind through its slot,
// resolved first against the population r's truth covers — as a batch of
// one when it is a selection or a mid-sweep strike is still to come, else
// with its alone arm — and the member assembly every batch answer shares;
// any other kind with its value, detail and named truth.
func unitOracleRunSolo(k *kind, r *unitOracleRun, heal *spantree.HealResult, res *Result) error {
	if k.member == nil {
		v, detail, err := k.solo(r.arm())
		if err != nil {
			return err
		}
		res.Value, res.Detail, res.Truth, res.TruthKnown = v, detail, k.truth(r.arm()), true
		unitOracleHealed(res, heal)
		return nil
	}
	m, err := k.slot(r.q, r.truth.count())
	if err != nil {
		return err
	}
	o := outcome{hr: heal, truth: &r.truth, team: r.team}
	if strike := striking(r.nw); k.alone == nil || strike {
		return r.unitOracleBatchOfOne(m, o, strike, res)
	}
	mr, sweeps, detail, err := k.alone(r.arm())
	if err != nil {
		return err
	}
	o.res.sweeps = sweeps
	o.answer(res, &m, &mr, detail)
	return nil
}

// unitOracleBatchOfOne answers slot m alone into res as a batch of one: runBatch
// from r's pre-query state in o on r's own plane, and the assembly every
// batch answer shares. Its detail names its own schedule or, when strike
// put the retry budget to work, a fused batch of one's and its re-heals.
func (r *unitOracleRun) unitOracleBatchOfOne(m member, o outcome, strike bool, res *Result) error {
	members, results := [1]member{m}, [1]memberResult{}
	o.res.members = results[:]
	o, err := runBatch(context.Background(), r.nw, r.spec, r.net, []Query{r.q}, members[:], o, time.Time{})
	if err == nil {
		err = o.res.members[0].err
	}
	if err != nil {
		return err
	}
	mb, sweeps := &members[0], o.res.sweeps
	var detail string
	switch {
	case strike && o.retries > 0 && !o.degraded:
		detail = fmt.Sprintf("resumed after %d mid-sweep re-heal(s); %s", o.retries, o.detail(mb, fusedDetail(1, sweeps)))
	case strike:
		detail = o.detail(mb, fusedDetail(1, sweeps))
	case mb.kind.vector:
		detail = fmt.Sprintf("%d quantiles in %d shared k-ary sweeps (width %d)", len(mb.ranks), sweeps, mb.width)
	case mb.ranks[0].Median:
		detail = fmt.Sprintf("%d k-ary sweeps (width %d)", sweeps, mb.width)
	default:
		detail = fmt.Sprintf("rank %d, %d k-ary sweeps (width %d)", mb.ranks[0].K, sweeps, mb.width)
	}
	o.answer(res, mb, &o.res.members[0], detail)
	return nil
}
