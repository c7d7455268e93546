package engine

import (
	"context"
	"errors"
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

// resilientOutcome is what one resilient batch run produced.
type resilientOutcome struct {
	res FusedResult
	// hr is the last heal that shaped the final view (nil when no heal ran
	// — an unfired plan with no structural pre-faults, or a budget-0
	// degrade).
	hr *spantree.HealResult
	// truth is the ground truth over the final view's survivors.
	truth *groundTruth
	// retries counts the re-heal/resume attempts consumed.
	retries int
	// degraded marks a budget-exhausted best-effort answer.
	degraded bool
	// survivorFrac is the covered fraction of the deployment's nodes, set
	// only when the phased fault actually fired.
	survivorFrac float64
}

// resilientFused drives one fusion batch (or a batch of one, the solo
// path) under a phased fault plan. The caller hands in the engine, heal
// result, and ground truth of the pre-query state; every retry re-derives
// them from the re-healed view. queries must already have defaults
// resolved and be fusable (fusedMemberFor ok).
func (e *Engine) resilientFused(ctx context.Context, nw *netsim.Network, spec Spec, fe *spantree.FastEngine, hr *spantree.HealResult, truth *groundTruth, queries []Query, deadline time.Time) (*resilientOutcome, error) {
	plan := nw.Faults
	out := &resilientOutcome{hr: hr}
	var seeds [][]core.SeedWindow
	for attempt := 0; ; attempt++ {
		members := make([]FusedMember, len(queries))
		for i, q := range queries {
			mb, ok := fusedMemberFor(q, truth.count())
			if !ok {
				return nil, fmt.Errorf("engine: %s is not fusable with these parameters", q.Kind)
			}
			if seeds != nil && len(seeds[i]) > 0 {
				mb.Seeds = seeds[i]
			}
			members[i] = mb
		}
		res := FusedResult{Members: make([]FusedMemberResult, len(members))}
		steppers, needSum := buildSteppers(members, &res)
		ise, ferr := driveGuarded(ctx, agg.NewNet(fe), members, steppers, needSum, deadline, &res)
		if ise == nil {
			out.res = res
			out.truth = truth
			out.retries = attempt
			if plan.PhaseFired() {
				out.survivorFrac = float64(fe.View().N()) / float64(nw.N())
			}
			return out, ferr
		}

		// The sweep died mid-flight: a dead subtree frontier (or the root
		// itself) went missing from the convergecast.
		if sk := obs.Active(); sk != nil {
			sk.SweepsIncomplete.Add(1)
		}
		if attempt >= spec.Retry.Budget {
			out.retries = attempt
			out.degraded = true
			out.survivorFrac = float64(nw.N()-plan.ExcludedCount()) / float64(nw.N())
			degradeMembers(members, steppers, &res)
			out.res = res
			if sk := obs.Active(); sk != nil {
				for i := range res.Members {
					if res.Members[i].Err == nil {
						sk.DegradedAnswers.Add(1)
					}
				}
			}
			return out, nil
		}
		if spec.Retry.Backoff > 0 {
			t := time.NewTimer(spec.Retry.Backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}

		// Checkpoint every selection member's last consistent intervals
		// before the steppers are rebuilt — the resumed attempt seeds from
		// them.
		seeds = make([][]core.SeedWindow, len(members))
		for i, st := range steppers {
			if st != nil {
				seeds[i] = st.Checkpoint(nil)
			}
		}

		// Re-heal around the dead subtrees, re-rooting if the root died,
		// and recompute the survivor ground truth the resumed sweeps count
		// over. Repair traffic is charged to the run meter like any other
		// protocol traffic.
		hr2, _, err := spantree.HealRerooted(nw)
		if err != nil {
			return nil, err
		}
		if sk := obs.Active(); sk != nil {
			sk.Retries.Add(1)
		}
		out.hr = hr2
		fe = spantree.NewFastView(nw, hr2.View)
		fe.SetWorkers(e.treeWorkers)
		truth = &groundTruth{nw: nw, view: hr2.View}
		if truth.count() == 0 {
			return nil, core.ErrEmpty
		}
	}
}

// driveGuarded runs one batch attempt, converting the mid-sweep
// incompleteness panic the agg layer throws back into its typed error.
// Any other panic value propagates. It is a plain function invoked only on
// the phased path, so the zero-fault hot path never pays for the
// defer/recover.
func driveGuarded(ctx context.Context, net *agg.Net, members []FusedMember, steppers []*core.SelectStepper, needSum bool, deadline time.Time, res *FusedResult) (ise *spantree.IncompleteSweepError, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok || !errors.As(e, &ise) {
				panic(r)
			}
			err = nil
		}
	}()
	err = driveFused(ctx, net, members, steppers, needSum, deadline, res)
	return nil, err
}

// degradeMembers fills every still-unanswered member with best-known
// bounds: a selection member gets the low end of each rank's checkpointed
// interval (or the global minimum when the search never resolved), an
// aggregate member gets whatever shared riders the failed attempt
// completed. No truth claim accompanies these values.
func degradeMembers(members []FusedMember, steppers []*core.SelectStepper, res *FusedResult) {
	for i, mb := range members {
		r := &res.Members[i]
		if r.Err != nil {
			continue
		}
		r.Detached = false
		if st := steppers[i]; st != nil {
			wins := st.Checkpoint(nil)
			r.Values = make([]uint64, len(mb.Ranks))
			for j := range r.Values {
				if j < len(wins) {
					r.Values[j] = wins[j].Lo
				} else {
					r.Values[j] = res.Lo
				}
			}
			continue
		}
		r.AggValues = aggValues(mb.Aggs, res)
	}
}

// executeResilientSolo routes a solo fusable query under a phased fault
// plan through the resilient loop as a batch of one, from the engine, heal
// result and ground truth of the pre-query state. ok is false when the
// query's parameters are unfusable — the caller falls through to the plain
// path, which reports the standard parameter error.
func (e *Engine) executeResilientSolo(nw *netsim.Network, spec Spec, q Query, fe *spantree.FastEngine, hr *spantree.HealResult, truth *groundTruth) (answer, bool, error) {
	if _, ok := fusedMemberFor(q, truth.count()); !ok {
		return answer{}, false, nil
	}
	rout, err := e.resilientFused(context.Background(), nw, spec, fe, hr, truth, []Query{q}, time.Time{})
	if err != nil {
		return answer{}, true, err
	}
	mr := rout.res.Members[0]
	if mr.Err != nil {
		return answer{}, true, mr.Err
	}
	var ans answer
	if rout.degraded {
		ans = degradedAnswer(q, mr, rout.retries)
	} else {
		ans = fusedAnswer(q, mr, rout.res.Sweeps, fusedDetail(1, rout.res.Sweeps), rout.truth)
		if rout.retries > 0 {
			ans.detail = fmt.Sprintf("resumed after %d mid-sweep re-heal(s); %s", rout.retries, ans.detail)
		}
	}
	ans.heal = rout.hr
	ans.retries = rout.retries
	ans.degraded = rout.degraded
	ans.survivorFrac = rout.survivorFrac
	return ans, true, nil
}
