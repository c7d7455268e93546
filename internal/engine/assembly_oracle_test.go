package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
)

// This file is the answer assembly's oracle. Below the test, verbatim from
// the engine before every run wrote its Result once but for the "oracle"
// prefix, are the two-step assembly it replaced: the internal answer
// record the kinds, batches and retries filled, resultFrom's field-by-field
// copy into Result, member.answer and outcome.answer, the solo execute
// path (execute, executeRobust, retrySolo) and the fusion group runner with
// its three field overrides. The solo arms are kind_oracle_test.go's
// oracleExecuteKind, the per-kind switch the kind table replaced, and the
// batch driver (runBatch) is the engine's own: what is held to the oracle
// is the assembly, not the protocols.

// oracleAnswer is what one protocol run produced, before metering is attached.
type oracleAnswer struct {
	value      float64
	detail     string
	truth      float64
	truthKnown bool
	// values/truths carry the full result vector of multi-valued kinds
	// (quantiles, fused); value/truth then hold the first entry.
	values []float64
	truths []float64
	// heal is the self-healing repair run that preceded the query, when
	// the run's fault plan had structural faults.
	heal *spantree.HealResult
	// sweeps is the number of probe sweeps in the plane that answered the
	// query (selection and fused-aggregate kinds); surfaces as
	// Result.SharedSweeps.
	sweeps int
	// seededSweeps/seedHit report the delta-narrowing outcome of a seeded
	// selection; surface as Result.SeededSweeps/SeedHit.
	seededSweeps int
	seedHit      bool
	// retries/degraded/survivorFrac report a phased fault plan's mid-flight
	// retry outcome; surface as Result.Retries/Degraded/SurvivorFrac.
	retries      int
	degraded     bool
	survivorFrac float64
	// robust marks a Query.Robust run, whose byz-tier outcome is rep, the
	// localization report (nil when no adversary was planned), and
	// integrity, the aggregation plane's integrity accounting.
	robust    bool
	rep       *byz.Report
	integrity byz.Integrity
}

// assemblyPlans are the fault plans of the assembly oracle: none, message
// faults, structural faults, liars and a mid-sweep strike. The strike's
// retry budget is the case's seed less one, so budget 0 degrades.
var assemblyPlans = []struct {
	name string
	fs   faults.Spec
}{
	{"none", faults.Spec{}},
	{"drop+dup", faults.Spec{Drop: 0.04, Dup: 0.04}},
	{"crash+linkfail", faults.Spec{Crash: 0.05, LinkFail: 0.03}},
	{"byz", faults.Spec{Byz: 0.05}},
	{"phased", faults.Spec{Crash: 0.02, MidAt: 2, MidCrash: 0.1}},
}

// assemblyJobs are a case's jobs: every kind, the selection kinds at probe
// widths 1, 2 and 8 with and without seed windows, every other kind at the
// one width of the three its seed picks (width changes nothing else), and
// every robust kind again on the robust tier.
func assemblyJobs(spec Spec, rng *rand.Rand) []Job {
	var qs []Query
	for i, w := range []int{1, 2, 8} {
		for _, k := range Kinds() {
			if !slices.Contains(selectionKinds, k) && uint64(i) != spec.Seed%3 {
				continue
			}
			q := Query{Kind: k, ProbeWidth: w}
			switch k {
			case KindOrderStat:
				q.K = 1 + rng.Uint64N(60)
			case KindQuantile:
				q.Phi = 0.01 + 0.99*rng.Float64()
			case KindQuantiles:
				q.Phis = []float64{0.1, 0.5, 0.01 + 0.99*rng.Float64()}
			case KindFused:
				q.Aggs = []string{"avg", "count", "max"}
			}
			if slices.Contains(selectionKinds, k) && rng.IntN(2) == 0 {
				for range max(1, len(q.Phis)) {
					lo := rng.Uint64N(spec.MaxX + 1)
					q.SeedWindows = append(q.SeedWindows, core.SeedWindow{Lo: lo, Hi: lo + rng.Uint64N(spec.MaxX/4+1)})
				}
			}
			qs = append(qs, q)
			if kindOf(k).robust {
				q.Robust = true
				qs = append(qs, q)
			}
		}
	}
	jobs := make([]Job, len(qs))
	for i, q := range qs {
		jobs[i] = Job{ID: fmt.Sprint(i), Spec: spec, Query: q}
	}
	return jobs
}

// TestAssemblyMatchesOracle holds every Result the engine writes once to
// the old two-step assembly's, on every field but WallNS: every kind ×
// plan × width × seed, robust on and off, each job submitted solo and in a
// fusion batch (the non-selection kinds meet each width across the seeds).
// The one difference allowed is the seeding outcome of a solo selection
// under a phased plan, which the old batch-of-one assembly dropped
// (TestPhasedSoloReportsSeeding pins the new one).
func TestAssemblyMatchesOracle(t *testing.T) {
	var degraded, retried, healed, robust, seeded, fused, phasedSeeded atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, pl := range assemblyPlans {
			for seed := uint64(1); seed <= 3; seed++ {
				spec := Spec{Topology: []string{"grid", "rgg", "complete"}[seed-1], N: 64, Workload: []string{"zipf", "uniform", "bimodal"}[seed-1],
					Seed: seed, Faults: pl.fs}
				if pl.fs.Phased() {
					spec.Retry.Budget = int(seed - 1)
				}
				spec = spec.Normalize()
				t.Run(fmt.Sprintf("%s/%d", pl.name, seed), func(t *testing.T) {
					t.Parallel()
					jobs := assemblyJobs(spec, rand.New(rand.NewPCG(seed, 0xa55e)))
					for _, fuse := range []bool{false, true} {
						var opts []SubmitOption
						if fuse {
							opts = append(opts, WithFusion())
						}
						got := New(Options{Workers: 2}).Submit(context.Background(), jobs, opts...)
						want := New(Options{Workers: 2}).oracleSubmit(jobs, fuse)
						for i := range jobs {
							g, w := got[i], want[i]
							if pl.fs.Phased() && !g.Fused && slices.Contains(selectionKinds, g.Query.Kind) {
								w.SeededSweeps, w.SeedHit = g.SeededSweeps, g.SeedHit
								tally(&phasedSeeded, g.SeededSweeps > 0)
							}
							sameResult(t, fmt.Sprintf("fuse=%v job %s %+v", fuse, jobs[i].ID, jobs[i].Query), g, w)
							tally(&degraded, g.Degraded)
							tally(&retried, g.Retries > 0 && !g.Degraded)
							tally(&healed, g.RepairBits > 0)
							tally(&robust, g.Suspected > 0)
							tally(&seeded, g.SeededSweeps > 0)
							tally(&fused, g.Fused)
						}
					}
				})
			}
		}
	})
	// A grid in which no answer degraded, resumed, healed, caught a liar,
	// was seeded or fused would hold nothing to the oracle there.
	for name, n := range map[string]*atomic.Int64{"degraded": &degraded, "retried": &retried, "healed": &healed,
		"robust": &robust, "seeded": &seeded, "fused": &fused, "phased solo seeded": &phasedSeeded} {
		if n.Load() == 0 {
			t.Errorf("no %s answer in the grid", name)
		}
	}
}

var selectionKinds = []string{KindMedian, KindOrderStat, KindQuantile, KindQuantiles}

func tally(n *atomic.Int64, b bool) {
	if b {
		n.Add(1)
	}
}

// oracleSubmit is Submit without its deadline and worker pool: planned as
// Submit plans, every unit run in order by the oracle's runners.
func (e *Engine) oracleSubmit(jobs []Job, fuse bool) []Result {
	results := make([]Result, len(jobs))
	p := planUnits(jobs, fuse)
	p.team = e.teamSize(len(p.units))
	defer e.session.pinAudits(jobs)()
	for _, idxs := range p.units {
		if !p.batch(jobs, idxs) {
			results[idxs[0]] = e.oracleExecuteJob(jobs[idxs[0]].Spec.Normalize(), jobs[idxs[0]], p.team)
			continue
		}
		for _, i := range e.oracleFusedResults(context.Background(), jobs, p, idxs, results) {
			results[i] = e.oracleExecuteJob(jobs[i].Spec.Normalize(), jobs[i], p.team)
		}
	}
	for i, j := range p.twin {
		if i != j {
			results[i] = results[j]
			results[i].ID = jobs[i].ID
		}
	}
	return results
}

// The oracle: the engine's assembly from before every run wrote its Result
// once, verbatim but for the "oracle" prefix, oracleExecuteKind standing in
// for the kind table's solo arms and the obs hooks left out.

func (e *Engine) oracleExecuteJob(spec Spec, job Job, team int) Result {
	start := time.Now()
	nw, err := e.fork(spec, &job)
	if err != nil {
		return failedResult(job, err)
	}
	before := nw.Meter.Snapshot()
	ans, err := e.oracleExecute(nw, spec, job.Query, team)
	if err != nil {
		nw.Release()
		return failedResult(job, err)
	}
	d := nw.Meter.Since(before)
	wall := time.Since(start)
	r := oracleResultFrom(spec, job.Query, ans, d, wall)
	r.ID = job.ID
	nw.Release()
	return r
}

// oracleResultFrom assembles a Result from an executed answer and its meter
// delta, including the fault-impact fields of a healed run.
func oracleResultFrom(spec Spec, q Query, ans oracleAnswer, d netsim.Delta, wall time.Duration) Result {
	r := Result{
		Spec:         spec,
		Query:        q.WithDefaults(),
		Value:        ans.value,
		Detail:       ans.detail,
		Values:       ans.values,
		Truth:        ans.truth,
		Truths:       ans.truths,
		TruthKnown:   ans.truthKnown,
		Exact:        ans.truthKnown && ans.value == ans.truth,
		BitsPerNode:  d.MaxPerNode,
		TotalBits:    d.TotalBits,
		Messages:     d.Messages,
		SharedSweeps: ans.sweeps,
		SeededSweeps: ans.seededSweeps,
		SeedHit:      ans.seedHit,
		Retries:      ans.retries,
		Degraded:     ans.degraded,
		SurvivorFrac: ans.survivorFrac,
		WallNS:       wall.Nanoseconds(),
	}
	if ans.truthKnown && len(ans.truths) == len(ans.values) && len(ans.values) > 0 {
		r.Exact = slices.Equal(ans.values, ans.truths)
	}
	if ans.heal != nil {
		r.Crashed = ans.heal.Crashed
		r.Unreachable = ans.heal.Unreachable
		r.RepairBits = ans.heal.Repair.TotalBits
	}
	if ans.robust {
		r.Robust = true
		// Audit-phase suspects and trim-phase suspects are disjoint
		// evidence: the former are historical (cleared or quarantined by
		// the time the query ran), the latter are the live sectors the
		// bound prices.
		r.Suspected = len(ans.integrity.Suspected)
		r.IntegrityBound = ans.integrity.BoundItems
		if rep := ans.rep; rep != nil {
			r.Suspected += len(rep.Suspected)
			r.Quarantined = len(rep.Quarantined)
			r.AuditRounds = rep.Rounds
			r.AuditBits = rep.AuditBits
		}
	}
	return r
}

func (e *Engine) oracleExecute(nw *netsim.Network, spec Spec, q Query, team int) (oracleAnswer, error) {
	q = q.WithDefaults()
	k := kindOf(q.Kind)
	if q.Where != nil {
		where, err := k.whereFor(q, nw.MaxX)
		if err != nil {
			return oracleAnswer{}, err
		}
		q.Where = &where
	}

	if p := nw.Faults; p != nil && p.Active() {
		if err := k.faultSupport(p.Spec()); err != nil {
			return oracleAnswer{}, err
		}
		if p.Spec().Phased() && q.Robust {
			return oracleAnswer{}, fmt.Errorf("engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)")
		}
		if p.Spec().Phased() && q.Where != nil {
			return oracleAnswer{}, fmt.Errorf("engine: WHERE does not support phased (mid-sweep) fault plans — the mid-sweep retry loop does not carry a predicate")
		}
	}

	r := &run{nw: nw, spec: spec, q: q}
	var heal *spantree.HealResult
	if k.tree {
		var err error
		if r.fe, heal, err = spantree.NewFastHealed(nw); err != nil {
			return oracleAnswer{}, err
		}
	} else {
		// Gossip/radio kinds never touch the tree: no repair runs, so their
		// cost is purely the protocol's own traffic.
		r.fe = spantree.NewFast(nw)
	}
	r.fe.SetWorkers(team)
	r.truth = groundTruth{nw: nw, view: r.fe.View(), where: q.Where}
	// A fusable query under a phased fault plan runs as a batch of one: the
	// batch driver's detect → re-heal → resume loop (retry.go), with the
	// same degradation contract as a fused batch.
	if p := nw.Faults; p != nil && p.PhaseArmed() && !q.Robust && k.member != nil {
		return e.oracleRetrySolo(r, k, heal, team)
	}
	if q.Robust {
		return e.oracleExecuteRobust(r, k, heal)
	}
	net := agg.NewNet(r.fe, agg.WithSketchP(q.SketchP))
	if q.Where != nil && k.where == whereFilter {
		net.Filter(*q.Where)
		defer net.Reset()
	}
	r.net = net
	ans, err := oracleRunSolo(r)
	if err != nil {
		return oracleAnswer{}, err
	}
	ans.heal = heal
	return ans, nil
}

// oracleRunSolo is the table's runSolo with the old switch as its arms: a
// fusable kind's slot is resolved first, so a parameter error precedes the
// protocol as it did.
func oracleRunSolo(r *run) (oracleAnswer, error) {
	if k := kindOf(r.q.Kind); k.member != nil {
		if _, err := k.slot(r.q, r.truth.count()); err != nil {
			return oracleAnswer{}, err
		}
	}
	return oracleExecuteKind(r.nw, r.spec, r.q, r.fe, r.net, &r.truth)
}

func (e *Engine) oracleExecuteRobust(r *run, k *kind, heal *spantree.HealResult) (oracleAnswer, error) {
	if !k.robust {
		return oracleAnswer{}, fmt.Errorf("engine: %s does not support robust mode (exact aggregate kinds only)", k.name)
	}
	rep, rnet, err := e.session.audit(r.nw, r.spec, r.fe.View(), r.q.SketchP)
	if err != nil {
		return oracleAnswer{}, err
	}
	if rep != nil && rep.Healed != nil {
		heal = rep.Healed
		r.truth = groundTruth{nw: r.nw, view: rep.Healed.View}
	}
	r.net = rnet
	ans, err := oracleRunSolo(r)
	if err != nil {
		return oracleAnswer{}, err
	}
	ans.heal = heal
	ans.robust, ans.rep, ans.integrity = true, rep, rnet.Integrity()
	return ans, nil
}

// oracleOutcomeAnswer assembles slot m's answer from its result in the batch: exact
// over the final survivors, its detail naming the shared schedule, or —
// when the retry budget ran out — the best-known bounds with no truth
// claim. shared is the batch's fusedDetail.
func oracleOutcomeAnswer(o *outcome, m *member, mr *memberResult, shared string) oracleAnswer {
	var ans oracleAnswer
	if o.degraded {
		ans = oracleMemberAnswer(m, mr.values, mr.aggValues, nil)
		ans.detail = fmt.Sprintf("degraded: retry budget exhausted after %d attempt(s); best-known bounds", o.retries+1)
	} else {
		ans = oracleMemberAnswer(m, mr.values, mr.aggValues, o.truth)
		ans.detail = m.kind.batchDetail(*m, shared)
		ans.sweeps = o.res.sweeps
	}
	ans.heal, ans.retries, ans.degraded, ans.survivorFrac = o.hr, o.retries, o.degraded, o.survivorFrac
	return ans
}

// oracleMemberAnswer assembles the member's value, values and truths from sel (a
// selection member's order statistics) or aggs (an aggregate member's
// answers), in member order, with each value's truth over g's population.
// A nil g claims no truth — a degraded answer's population no longer
// exists. Detail and schedule are the caller's.
func oracleMemberAnswer(m *member, sel []uint64, aggs []float64, g *groundTruth) (ans oracleAnswer) {
	n := len(m.ranks) + len(m.aggs)
	if m.kind.vector {
		ans.values = make([]float64, n)
		if g != nil {
			ans.truths = make([]float64, n)
		}
	}
	for i := n - 1; i >= 0; i-- { // entry 0 last: value and truth hold it
		if len(m.ranks) > 0 {
			ans.value = float64(sel[i])
		} else {
			ans.value = aggs[i]
		}
		if g != nil {
			ans.truth, ans.truthKnown = m.truth(i, g), true
		}
		if ans.values != nil {
			ans.values[i] = ans.value
		}
		if ans.truths != nil {
			ans.truths[i] = ans.truth
		}
	}
	return ans
}

// oracleRetrySolo runs a solo fusable query under a phased fault plan from r's
// pre-query state as a batch of one: the batch driver and its assembly.
func (e *Engine) oracleRetrySolo(r *run, k *kind, heal *spantree.HealResult, team int) (oracleAnswer, error) {
	mb, err := k.slot(r.q, r.truth.count())
	if err != nil {
		return oracleAnswer{}, err
	}
	members := []member{mb}
	o, err := runBatch(context.Background(), r.nw, r.spec, agg.NewNet(r.fe), []Query{r.q}, members, outcome{hr: heal, truth: &r.truth, team: team}, time.Time{})
	if err == nil {
		err = o.res.members[0].err
	}
	if err != nil {
		return oracleAnswer{}, err
	}
	ans := oracleOutcomeAnswer(&o, &members[0], &o.res.members[0], fusedDetail(1, o.res.sweeps))
	if o.retries > 0 && !o.degraded {
		ans.detail = fmt.Sprintf("resumed after %d mid-sweep re-heal(s); %s", o.retries, ans.detail)
	}
	return ans, nil
}

// oracleFusedResults executes a fusion group on one forked network and writes
// member results by original index. It returns the indices that must
// finish solo: members whose parameters need the solo error path, members
// the deadline detached, and — on a panic before every member's answer is
// assembled — the whole group. A panicking batch skips the pool release,
// like a panicking solo run.
func (e *Engine) oracleFusedResults(ctx context.Context, jobs []Job, p plan, idxs []int, results []Result) (solo []int) {
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
	for mi, ji := range idxs[:len(members)] {
		mr := &o.res.members[mi]
		if mr.detached {
			solo = append(solo, ji)
			continue
		}
		if mr.err != nil {
			results[ji] = failedResult(jobs[ji], mr.err)
			continue
		}
		r := oracleResultFrom(spec, queries[mi], oracleOutcomeAnswer(&o, &members[mi], mr, shared), d, wall)
		r.ID = jobs[ji].ID
		r.Fused = true
		r.SharedSweeps = o.res.sweeps
		r.SeededSweeps = mr.seededSweeps
		r.SeedHit = mr.seedHit
		results[ji] = r
	}
	settled = true
	nw.Release()
	return solo
}
