package main

import (
	"context"
	"fmt"
	"slices"

	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/serve"
)

// The layer ladder exercises the same deployment with the same inputs at
// each public boundary from the outside in:
//
//	rung 0  the op itself        serve.AdvanceEpoch + drain, or Engine.Submit
//	rung 1  engine.Submit        of exactly the jobs serve built for that epoch
//	rung 2  one Submit per unit  (solo job or fusion batch), serially
//	rung 3  the replay           each unit below the engine, every call a span
//
// A layer's self time is its rung minus the rung below; the replay's spans
// split what is left among netsim, faults, spantree, byz, agg and core.
// Rungs 1-3 re-run recorded ops, and each compares its answers, bits/node
// and sweep counts with what the op delivered.

// ladderRep is one recorded op: the jobs the engine received for it and
// what it delivered for each.
type ladderRep struct {
	jobs    []engine.Job
	results []delivery
}

// delivery is the part of a delivered result the lower rungs must reproduce.
type delivery struct {
	answers []float64
	bits    int64
	sweeps  int
}

// memberQuery is the engine query behind a member, and whether serve seeds
// it from its answer history.
type memberQuery struct {
	query  engine.Query
	seeded bool
}

// ladderResult is the ladder's outcome, times in µs per op (medians over
// the recorded ops).
type ladderResult struct {
	reps     int
	opUS     float64 // rung 0
	epochUS  float64 // serve.AdvanceEpoch alone
	drainUS  float64 // draining the subscription channels
	submitUS float64 // rung 1 (= rung 0 on engine workloads)
	serialUS float64 // rung 2 (= rung 1 when the op is one unit)
	replayUS float64 // rung 3
	// Self times between rungs: the median over the recorded ops of one
	// op's rung minus the same op's rung below, which run within a block of
	// each other — steadier than the difference of the rungs' medians.
	serveSelfUS  float64 // rung 0 − rung 1
	engineSelfUS float64 // rung 2 − rung 3
	units        int
	layerSelf    map[string]float64 // from the replay's spans, by layer
	spanUS       map[string]float64 // median per-op total of each span name in the replay
}

// onePlane reports whether the op's members all share one fusion batch.
// Robust members never fuse, and an engine workload fuses only when it asks.
func (w *workload) onePlane() bool {
	if w.serve {
		return !w.robust
	}
	return w.fuse
}

// seedWindows mirrors serve's documented delta-narrowing contract: a window
// centred on last answer + last move, with margin max(SeedMarginFloor,
// |last move|). The ladder needs it to hand rung 1 the jobs serve built;
// rung 1 verifies the mirror by demanding identical sweep counts.
func seedWindows(last, before []float64) []core.SeedWindow {
	out := make([]core.SeedWindow, len(last))
	for j := range last {
		move := int64(last[j]) - int64(before[j])
		margin := max(move, -move, serve.SeedMarginFloor)
		center := max(int64(last[j])+move, 0)
		out[j] = core.SeedWindow{Lo: uint64(max(center-margin, 0)), Hi: uint64(center + margin)}
	}
	return out
}

// recordOp runs one traced op on the instance and records what the engine
// was asked. hist holds the answers of the two preceding ops (newest first),
// which is what serve seeds this op's selections from.
func recordOp(inst *instance, queries []memberQuery, hist *[2][][]float64) (ladderRep, error) {
	w := inst.w
	inst.op()
	rs := inst.delivered()
	inst.orc.advance(inst.ops)
	if n := countUsable(rs); n != len(rs) {
		return ladderRep{}, fmt.Errorf("ladder: op %d answered %d of %d: %s", inst.ops, n, len(rs), firstError(rs))
	}
	rep := ladderRep{results: make([]delivery, len(rs))}
	for i := range rs {
		r := &rs[i].Result
		rep.results[i] = delivery{slices.Clone(answerValues(r)), r.BitsPerNode, r.SharedSweeps}
	}
	if !w.serve {
		rep.jobs = slices.Clone(inst.jobs)
		return rep, nil
	}
	ov := &engine.Overlay{Epoch: inst.ops, Values: slices.Clone(inst.orc.values)}
	for i, sub := range inst.subs {
		q := queries[i%len(queries)].query
		if hist[1] != nil && queries[i%len(queries)].seeded {
			q.SeedWindows = seedWindows(hist[0][i], hist[1][i])
		}
		rep.jobs = append(rep.jobs, engine.Job{
			ID: fmt.Sprintf("sub-%d@%d", sub.ID, inst.ops), Spec: inst.spec, Query: q, Overlay: ov,
		})
	}
	answers := make([][]float64, len(rs))
	for i := range rep.results {
		answers[i] = rep.results[i].answers
	}
	hist[1], hist[0] = hist[0], answers
	return rep, nil
}

// sameAs checks a rung's result for member i against what the op delivered.
func (rep *ladderRep) sameAs(rung string, i int, answers []float64, bits int64, sweeps int) error {
	want := &rep.results[i]
	if !slices.Equal(answers, want.answers) || bits != want.bits || sweeps != want.sweeps {
		return fmt.Errorf("ladder: %s diverged from the op on member %d (%s): answers %v vs %v, bits/node %d vs %d, sweeps %d vs %d",
			rung, i, rep.jobs[i].Query.Kind, answers, want.answers, bits, want.bits, sweeps, want.sweeps)
	}
	return nil
}

// ladderBlock is how many ops each rung runs before the next rung takes
// over. Rungs alternate in blocks, not op by op, so that a rung pays for the
// garbage it makes itself; and in blocks, not one rung after the other over
// the whole ladder, so that a rung and the rung below it see the same
// machine weather and their difference is the layer, not the minute.
const ladderBlock = 10

// runLadder records `reps` ops, block by block, and re-runs each block on
// every lower rung. A first block of two ops builds serve's seed history and
// warms the rungs' own pools; it is neither traced nor checked (its jobs
// lack their seed windows).
func runLadder(inst *instance, tr *tracer, reps int) (*ladderResult, error) {
	w := inst.w
	ctx := context.Background()
	lr := &ladderResult{reps: reps, layerSelf: map[string]float64{}, spanUS: map[string]float64{}}

	// The engine queries behind the members, as serve maps them.
	var queries []memberQuery
	opts := inst.opts
	for i := range w.members {
		mq := memberQuery{query: w.members[i].query}
		if w.serve {
			q, nranks, err := serve.QueryFor(w.members[i].stmt)
			if err != nil {
				return nil, err
			}
			q.Robust = w.robust
			mq = memberQuery{query: q, seeded: nranks > 0}
			opts = []engine.SubmitOption{engine.WithFusion()}
		}
		queries = append(queries, mq)
	}

	// Units: one fusion batch, or every job on its own.
	var units [][]int
	if w.onePlane() {
		all := make([]int, w.memberCount())
		for i := range all {
			all[i] = i
		}
		units = [][]int{all}
	} else {
		for i := 0; i < w.memberCount(); i++ {
			units = append(units, []int{i})
		}
	}
	lr.units = len(units)

	dep, err := newDeployment(inst.eng.Session(), inst.spec)
	if err != nil {
		return nil, err
	}
	perLayer := map[string][]float64{}
	perSpan := map[string][]float64{}

	// Rung 1: the engine alone, on the jobs serve built.
	rung1 := func(rtr *tracer, rep *ladderRep) error {
		rtr.nextOp()
		var res []engine.Result
		rtr.do("ladder.submit", func() { res = inst.eng.Submit(ctx, rep.jobs, opts...) })
		for i := range res {
			if err := rep.sameAs("engine.Submit", i, answerValues(&res[i]), res[i].BitsPerNode, res[i].SharedSweeps); rtr != nil && err != nil {
				return err
			}
		}
		return nil
	}
	// Rung 2: the units one after the other, so that the worker pool's
	// overlap does not hide any of their time.
	rung2 := func(rtr *tracer, rep *ladderRep) {
		rtr.nextOp()
		rtr.do("ladder.units", func() {
			for _, u := range units {
				inst.eng.Submit(ctx, []engine.Job{rep.jobs[u[0]]}, opts...)
			}
		})
	}
	// Rung 3: the replay.
	rung3 := func(rtr *tracer, rep *ladderRep) error {
		rtr.nextOp()
		mark := rtr.mark()
		h := rtr.begin("ladder.replay")
		for _, u := range units {
			in := unitInput{runSeed: rep.jobs[u[0]].RunSeed}
			if ov := rep.jobs[u[0]].Overlay; ov != nil {
				in.overlay = ov.Values
			}
			for _, i := range u {
				in.queries = append(in.queries, rep.jobs[i].Query.WithDefaults())
			}
			out, err := replayUnit(rtr, dep, in, w.onePlane())
			if err != nil {
				return err
			}
			for j, i := range u {
				if err := rep.sameAs("the replay", i, out.answers[j], out.bitsPerNode, replaySweeps(&rep.results[i], out.sweeps)); rtr != nil && err != nil {
					return err
				}
			}
		}
		rtr.end(h)
		spans := rtr.since(mark)
		for layer, us := range selfTimes(spans) {
			perLayer[layer] = append(perLayer[layer], us)
		}
		sums := map[string]float64{}
		for _, s := range spans {
			sums[s.Name] += float64(s.End-s.Start) / 1e3
		}
		for name, us := range sums {
			perSpan[name] = append(perSpan[name], us)
		}
		return nil
	}

	var hist [2][][]float64
	start := tr.mark()
	for done := -2; done < reps; {
		rtr, n := tr, min(ladderBlock, reps-done)
		if done < 0 {
			rtr, n = nil, 2
		}
		// Rung 0: the op.
		block := make([]ladderRep, n)
		inst.tr = rtr
		for i := range block {
			if block[i], err = recordOp(inst, queries, &hist); err != nil {
				break
			}
		}
		inst.tr = nil
		if err != nil {
			return nil, err
		}
		for i := range block {
			if w.serve {
				if err := rung1(rtr, &block[i]); err != nil {
					return nil, err
				}
			}
		}
		for i := range block {
			if len(units) > 1 {
				rung2(rtr, &block[i])
			}
		}
		for i := range block {
			if err := rung3(rtr, &block[i]); err != nil {
				return nil, err
			}
		}
		done += n
	}

	rung := func(name string) []float64 { return durations(tr.since(start), name) }
	op, submit, serial, replay := rung("bench.op"), rung("bench.op"), rung("bench.op"), rung("ladder.replay")
	if w.serve {
		submit = rung("ladder.submit")
		serial = submit
	}
	if len(units) > 1 {
		serial = rung("ladder.units")
	}
	lr.opUS, lr.submitUS, lr.serialUS, lr.replayUS = median(op), median(submit), median(serial), median(replay)
	lr.epochUS = median(rung("serve.AdvanceEpoch"))
	lr.drainUS = median(rung("serve.drain"))
	lr.serveSelfUS = medianDiff(op, submit)
	lr.engineSelfUS = medianDiff(serial, replay)
	for layer, us := range perLayer {
		lr.layerSelf[layer] = median(padded(us, reps))
	}
	for name, us := range perSpan {
		lr.spanUS[name] = median(padded(us, reps))
	}
	return lr, nil
}

// medianDiff is the median of a[i] − b[i].
func medianDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// replaySweeps is the sweep count to hold the replay to: the engine reports
// sweeps for selections and the fused aggregate only, so a plain aggregate's
// one sweep is not compared.
func replaySweeps(want *delivery, got int) int {
	if want.sweeps == 0 {
		return 0
	}
	return got
}

// padded extends xs with zeros to n entries: a span that did not occur in
// an op contributed no time to it.
func padded(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}
