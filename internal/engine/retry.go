package engine

import (
	"context"
	"fmt"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
)

// This file is the mid-flight fault-tolerance loop: when a phased fault
// plan (faults.Spec.MidAt) kills nodes or links while a sweep is in
// flight, the tree engine's completeness check surfaces
// spantree.ErrSweepIncomplete instead of a silently partial count. The
// loop here catches it, re-heals the tree around the dead subtrees
// (re-rooting if the root itself died), recomputes the survivor ground
// truth, and resumes every selection search from its checkpointed
// interval — up to Spec.Retry.Budget times, after which the answer is
// assembled degraded from the best-known bounds instead of erroring.
//
// Resume soundness: checkpointed intervals come back as seed *windows* on
// fresh steppers, never as hard bounds. The pre-crash probe counts were
// taken over a population that no longer exists, so every absolute count
// is recomputed against the survivors; the checkpoint only biases the new
// schedule toward where the answer already was, which costs at most the
// sweeps the hint saves and can never change the answer.

// outcome is what one batch run produced.
type outcome struct {
	res batchResult
	// hr is the last heal that shaped the final view (nil when no heal ran
	// — no structural pre-faults and no fire, or a budget-0 degrade).
	hr *spantree.HealResult
	// truth is the ground truth over the final view's survivors.
	truth *groundTruth
	// retries counts the re-heal/resume attempts consumed.
	retries int
	// degraded marks a budget-exhausted best-effort answer.
	degraded bool
	// survivorFrac is the covered fraction of the deployment's nodes, set
	// only when a phased fault actually fired.
	survivorFrac float64
}

// runBatch is the engine's one batch driver: it runs members — a fusion
// batch, or a batch of one for a solo job under a phased plan — as one
// shared probe schedule on fe's plane, starting from the pre-query state in
// o (the heal that shaped fe's view and its ground truth). Attempt 0 runs
// the members as built; with no fault striking mid-sweep it is the only
// attempt, and the retry budget goes unused. queries are the members'
// resolved queries: every retry rebuilds the members from them, because
// the survivor population (and with it φ-resolved ranks) shrinks. members
// holds the final attempt's slots on return.
func (e *Engine) runBatch(ctx context.Context, nw *netsim.Network, spec Spec, fe *spantree.FastEngine, queries []Query, members []member, o outcome, deadline time.Time) (outcome, error) {
	for attempt := 0; ; attempt++ {
		o.res = batchResult{members: make([]memberResult, len(members))}
		steppers, ise, err := driveFused(ctx, agg.NewNet(fe), members, deadline, &o.res)
		plan := nw.Faults
		if ise == nil {
			o.retries = attempt
			if plan != nil && plan.PhaseFired() {
				o.survivorFrac = float64(fe.View().N()) / float64(nw.N())
			}
			return o, err
		}

		// The sweep died mid-flight: a dead subtree frontier (or the root
		// itself) went missing from the convergecast.
		if sk := obs.Active(); sk != nil {
			sk.SweepsIncomplete.Add(1)
		}
		if attempt >= spec.Retry.Budget {
			// Out of budget: every still-unanswered member gets best-known
			// bounds, with no truth claim — a selection member the low end of
			// each rank's checkpointed interval (or the global minimum when
			// the search never resolved), an aggregate member whatever shared
			// riders the failed attempt completed.
			o.retries, o.degraded = attempt, true
			o.survivorFrac = float64(nw.N()-plan.ExcludedCount()) / float64(nw.N())
			sk := obs.Active()
			for i := range members {
				r := &o.res.members[i]
				if r.err != nil {
					continue
				}
				if sk != nil {
					sk.DegradedAnswers.Add(1)
				}
				r.detached = false
				if st := steppers[i]; st != nil {
					wins := st.Checkpoint(nil)
					r.values = make([]uint64, len(members[i].ranks))
					for j := range r.values {
						r.values[j] = o.res.lo
						if j < len(wins) {
							r.values[j] = wins[j].Lo
						}
					}
				} else {
					r.aggValues = aggValues(members[i].aggs, &o.res.fact21)
				}
			}
			return o, nil
		}
		// Re-heal around the dead subtrees, re-rooting if the root died,
		// and recompute the survivor ground truth the resumed sweeps count
		// over. Repair traffic is charged to the run meter like any other
		// protocol traffic.
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			return o, err
		}
		if sk := obs.Active(); sk != nil {
			sk.Retries.Add(1)
		}
		o.hr = hr
		fe = spantree.NewFastView(nw, hr.View)
		fe.SetWorkers(e.treeWorkers)
		o.truth = &groundTruth{nw: nw, view: hr.View}
		if o.truth.count() == 0 {
			return o, core.ErrEmpty
		}
		// Rebuild every member against the survivors, seeded from its last
		// consistent intervals. The parameters passed attempt 0, so the
		// slots resolve.
		for i := range members {
			mb, _ := members[i].kind.slot(queries[i], o.truth.count())
			if st := steppers[i]; st != nil {
				if wins := st.Checkpoint(nil); len(wins) > 0 {
					mb.seeds = wins
				}
			}
			members[i] = mb
		}
	}
}

// answer assembles slot m's answer from its result in the batch: exact
// over the final survivors, its detail naming the shared schedule, or —
// when the retry budget ran out — the best-known bounds with no truth
// claim. shared is the batch's fusedDetail.
func (o *outcome) answer(m *member, mr *memberResult, shared string) answer {
	var ans answer
	if o.degraded {
		ans = m.answer(mr.values, mr.aggValues, nil)
		ans.detail = fmt.Sprintf("degraded: retry budget exhausted after %d attempt(s); best-known bounds", o.retries+1)
	} else {
		ans = m.answer(mr.values, mr.aggValues, o.truth)
		ans.detail = m.kind.batchDetail(*m, shared)
		ans.sweeps = o.res.sweeps
	}
	ans.heal, ans.retries, ans.degraded, ans.survivorFrac = o.hr, o.retries, o.degraded, o.survivorFrac
	return ans
}

// retrySolo runs a solo fusable query under a phased fault plan from r's
// pre-query state as a batch of one: the batch driver and its assembly.
func (e *Engine) retrySolo(r *run, k *kind, heal *spantree.HealResult) (answer, error) {
	mb, err := k.slot(r.q, r.truth.count())
	if err != nil {
		return answer{}, err
	}
	members := []member{mb}
	o, err := e.runBatch(context.Background(), r.nw, r.spec, r.fe, []Query{r.q}, members, outcome{hr: heal, truth: &r.truth}, time.Time{})
	if err == nil {
		err = o.res.members[0].err
	}
	if err != nil {
		return answer{}, err
	}
	ans := o.answer(&members[0], &o.res.members[0], fusedDetail(1, o.res.sweeps))
	if o.retries > 0 && !o.degraded {
		ans.detail = fmt.Sprintf("resumed after %d mid-sweep re-heal(s); %s", o.retries, ans.detail)
	}
	return ans, nil
}
