package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

// The fused selection loop as fusion.go ran it before every selection
// moved onto one core.Plane, verbatim below the marker (renamed
// oracleDriveFused): one MinMax round, then merged sweeps on an
// agg.SweepMux until every member resolves. TestFusedLoopOracle holds
// driveFused to it.

// --- verbatim from fusion.go ---

func oracleDriveFused(ctx context.Context, net *agg.Net, members []member, deadline time.Time, res *batchResult) (steppers []*core.SelectStepper, ise *spantree.IncompleteSweepError, err error) {
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
		r.aggValues = aggValues(nil, members[i].aggs, &res.fact21)
	}
	return steppers, nil, nil
}

// --- end verbatim ---

// driveFunc is one batch attempt's driver: driveFused or its oracle.
type driveFunc func(context.Context, *agg.Net, []member, time.Time, *batchResult) ([]*core.SelectStepper, *spantree.IncompleteSweepError, error)

// loopRecord is what an attempt produced, as the loop oracle compares it.
// A killed attempt's sweeps and probes are left out: the old loop dropped
// them, and TestFusedLoopOracle holds the plane's to the phase clock.
func loopRecord(res *batchResult, ise *spantree.IncompleteSweepError, err error) string {
	var b strings.Builder
	if ise != nil {
		fmt.Fprintf(&b, "killed, totals %+v, error %v\n", res.fact21, err)
	} else {
		fmt.Fprintf(&b, "%d sweeps, %d probes, totals %+v, killed false, error %v\n", res.sweeps, res.probes, res.fact21, err)
	}
	for i, m := range res.members {
		fmt.Fprintf(&b, "  member %d: %v %v error %v detached %v seeded %d hit %v\n", i, m.values, m.aggValues, m.err, m.detached, m.seededSweeps, m.seedHit)
	}
	return b.String()
}

// runAttempts runs queries as one batch on a fresh fork of spec through
// drive, healing and resuming after a mid-sweep kill the way runBatch
// does, and returns every attempt's record and the run network.
func runAttempts(t *testing.T, spec Spec, queries []Query, drive driveFunc) ([]string, *netsim.Network) {
	t.Helper()
	nw, err := NewSession().Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fe, _, err := spantree.NewFastHealed(nw)
	if err != nil {
		t.Fatal(err)
	}
	n := (&groundTruth{nw: nw, view: fe.View()}).count()
	members := make([]member, len(queries))
	checkpoints := make([][]core.SeedWindow, len(queries))
	var records []string
	for attempt := 0; ; attempt++ {
		for i, q := range queries {
			mb, err := kindOf(q.Kind).slot(q, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(checkpoints[i]) > 0 {
				mb.seeds = checkpoints[i]
			}
			members[i] = mb
		}
		res := batchResult{members: make([]memberResult, len(members))}
		steppers, ise, err := drive(context.Background(), agg.NewNet(fe), members, time.Time{}, &res)
		records = append(records, loopRecord(&res, ise, err))
		if ise == nil || attempt >= spec.Retry.Budget {
			return records, nw
		}
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			return append(records, err.Error()), nw
		}
		fe = spantree.NewFastView(nw, hr.View)
		if n = (&groundTruth{nw: nw, view: hr.View}).count(); n == 0 {
			return records, nw
		}
		for i, st := range steppers {
			checkpoints[i] = nil
			if st != nil {
				checkpoints[i] = st.Checkpoint(nil)
			}
		}
	}
}

// TestFusedLoopOracle holds driveFused, the batch on one core.Plane, to
// the fused loop it replaced: over TestExactnessOracle's generated
// deployments, selection jobs, seed windows and fault plans (none,
// crash+linkfail, phased with retries), with an aggregate member riding
// some batches, every attempt's answers, errors, sweeps, probes, totals
// and mid-sweep kills agree. At widths 2–64 every node is charged the
// same; when every search has width 1 the plane frames one-predicate
// sweeps as COUNTPs, and no node is charged more. A killed attempt keeps
// the sweeps it ran, which the old loop dropped: the strike kills the
// convergecast at tick MidAt of the phase clock, and the MinMax round is
// tick 1, so it ran MidAt−2.
func TestFusedLoopOracle(t *testing.T) {
	t.Parallel()
	cases := 1000
	if testing.Short() {
		cases = 300
	}
	aggs := []string{"count", "sum", "min", "max", "avg"}
	var kills, ones int
	for c := uint64(0); c < uint64(cases); c++ {
		rng := rand.New(rand.NewPCG(c, 0xf0e))
		jobs := exactnessCase(c)
		spec := jobs[0].Spec.Normalize()
		widthOne := c%4 == 0
		queries := make([]Query, 0, len(jobs)+1)
		for _, job := range jobs {
			q := job.Query.WithDefaults()
			q.ProbeWidth = 1
			if !widthOne {
				q.ProbeWidth = []int{2, 3, 4, 5, 8, 16, 32, 64}[rng.IntN(8)]
			}
			queries = append(queries, q)
		}
		if rng.IntN(3) == 0 {
			q := Query{Kind: KindFused, Aggs: slices.Clone(aggs[:1+rng.IntN(len(aggs))])}
			rng.Shuffle(len(q.Aggs), func(i, j int) { q.Aggs[i], q.Aggs[j] = q.Aggs[j], q.Aggs[i] })
			queries = append(queries, q.WithDefaults())
		}
		want, oracleNw := runAttempts(t, spec, queries, oracleDriveFused)
		killedAfter := -1
		got, nw := runAttempts(t, spec, queries, func(ctx context.Context, net *agg.Net, members []member, deadline time.Time, res *batchResult) ([]*core.SelectStepper, *spantree.IncompleteSweepError, error) {
			ise, err := driveFused(ctx, net, members, deadline, res)
			if ise != nil {
				killedAfter = res.sweeps
			}
			steppers := make([]*core.SelectStepper, len(members))
			for i := range members {
				steppers[i] = res.members[i].st
			}
			return steppers, ise, err
		})
		where := fmt.Sprintf("case %d %s width 1 %v %v", c, spec, widthOne, queries)
		if !slices.Equal(got, want) {
			t.Fatalf("%s:\nplane\n%s\noracle\n%s", where, strings.Join(got, ""), strings.Join(want, ""))
		}
		if killedAfter >= 0 && killedAfter != spec.Faults.MidAt-2 {
			t.Fatalf("%s: the killed attempt recorded %d sweeps, want MidAt-2 = %d", where, killedAfter, spec.Faults.MidAt-2)
		}
		for u := range nw.N() {
			paid, oraclePaid := nw.Meter.PerNode(topology.NodeID(u)), oracleNw.Meter.PerNode(topology.NodeID(u))
			if paid > oraclePaid || !widthOne && paid != oraclePaid {
				t.Fatalf("%s: node %d paid %d bits, oracle %d", where, u, paid, oraclePaid)
			}
		}
		if !widthOne && !slices.Equal(nw.Meter.Ledger(), oracleNw.Meter.Ledger()) {
			t.Fatalf("%s: meters differ", where)
		}
		if len(got) > 1 {
			kills++
		}
		if widthOne {
			ones++
		}
		nw.Release()
		oracleNw.Release()
	}
	t.Logf("%d cases (%d all width 1), %d with a mid-sweep kill", cases, ones, kills)
}
