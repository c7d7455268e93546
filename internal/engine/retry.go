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

// This file is the batch driver the unit runner (fusion.go) answers a
// unit's members with — a group's batch or a unit of one's batch of one —
// and its mid-flight fault-tolerance loop: when a phased fault plan
// (faults.Spec.MidAt) kills nodes or links mid-sweep, the tree engine's
// completeness check surfaces spantree.ErrSweepIncomplete instead of a
// silently partial count. The loop re-heals around the dead subtrees
// (re-rooting if the root died), recomputes the survivor ground truth and
// resumes every search from its checkpointed interval — up to
// Spec.Retry.Budget times, then assembles the answer degraded from the
// best-known bounds. With no strike to come it runs once.
//
// Resume soundness: checkpoints come back as seed *windows* on fresh
// steppers, never as hard bounds. The pre-crash counts were taken over a
// population that no longer exists, so every count is taken again over the
// survivors; a window only biases the new schedule toward where the answer
// already was, which can never change the answer.

// outcome is what one batch run produced.
type outcome struct {
	res batchResult
	// hr is the last heal that shaped the final view (nil when no heal ran
	// — no structural pre-faults and no fire, or a budget-0 degrade).
	hr *spantree.HealResult
	// truth is the ground truth over the final view's survivors.
	truth *groundTruth
	// team is the tree-kernel team size a re-healed view's engine runs on.
	team int
	// retries counts the re-heal/resume attempts consumed.
	retries int
	// degraded marks a budget-exhausted best-effort answer.
	degraded bool
	// survivorFrac is the covered fraction of the deployment's nodes, set
	// only when a phased fault actually fired.
	survivorFrac float64
}

// runBatch is the engine's one batch driver: it runs members — a fusion
// batch, or a solo job's batch of one — as one shared probe schedule on
// net, plain or robust, from the pre-query state in o: the heal that shaped
// net's view, its ground truth, and the results every attempt writes over
// when the caller sized o.res.members to the batch (else runBatch makes
// them). With no fault striking mid-sweep attempt 0 is the only one, and
// the retry budget goes unused. Each retry rebuilds the members from their
// resolved queries against the shrunken survivor population (which moves
// φ-resolved ranks) on an agg.Net over the re-healed view; members holds
// the final attempt's slots on return.
func runBatch(ctx context.Context, nw *netsim.Network, spec Spec, net core.Net, queries []Query, members []member, o outcome, deadline time.Time) (outcome, error) {
	strike := striking(nw) // a strike before the batch is its view's, not its own
	results := o.res.members
	if len(results) != len(members) {
		results = make([]memberResult, len(members))
	}
	for attempt := 0; ; attempt++ {
		clear(results)
		o.res = batchResult{members: results}
		ise, err := driveFused(ctx, net, members, deadline, &o.res)
		plan := nw.Faults
		if ise == nil {
			o.retries = attempt
			if strike && plan.PhaseFired() {
				o.survivorFrac = float64(o.truth.view.N()) / float64(nw.N())
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
				if r.st != nil {
					wins := r.st.Checkpoint(nil)
					r.values = make([]uint64, len(members[i].ranks))
					for j := range r.values {
						r.values[j] = o.res.lo
						if j < len(wins) {
							r.values[j] = wins[j].Lo
						}
					}
				} else {
					r.aggValues = aggValues(nil, members[i].aggs, &o.res.fact21)
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
		fe := spantree.NewFastView(nw, hr.View)
		fe.SetWorkers(o.team)
		net = agg.NewNet(fe)
		o.truth = &groundTruth{nw: nw, view: hr.View}
		if o.truth.count() == 0 {
			return o, core.ErrEmpty
		}
		// Rebuild every member against the survivors, seeded from its last
		// consistent intervals. The parameters passed attempt 0, so the
		// slots resolve.
		for i := range members {
			mb, _ := members[i].kind.slot(queries[i], o.truth.count())
			if st := o.res.members[i].st; st != nil {
				if wins := st.Checkpoint(nil); len(wins) > 0 {
					mb.seeds = wins
				}
			}
			members[i] = mb
		}
	}
}

// answer writes slot m's answer from its result mr on o's plane into res,
// with detail: exact over the final survivors or — when the retry budget
// ran out — the best-known bounds with no truth claim, with the plane's
// sweeps, the heal that shaped the final view and the retry outcome. Solo,
// fused, retried and degraded answers all take this one assembly.
func (o *outcome) answer(res *Result, m *member, mr *memberResult, detail string) {
	g := o.truth
	if o.degraded {
		g = nil
	}
	m.answer(res, mr, g)
	res.Detail, res.SharedSweeps = detail, o.res.sweeps
	if hr := o.hr; hr != nil {
		res.Crashed, res.Unreachable, res.RepairBits = hr.Crashed, hr.Unreachable, hr.Repair.TotalBits
	}
	res.Retries, res.Degraded, res.SurvivorFrac = o.retries, o.degraded, o.survivorFrac
}

// detail is slot m's detail in the batch whose shared schedule the string
// shared describes, or the degraded notice when the retry budget ran out.
func (o *outcome) detail(m *member, shared string) string {
	if o.degraded {
		return fmt.Sprintf("degraded: retry budget exhausted after %d attempt(s); best-known bounds", o.retries+1)
	}
	return m.kind.batchDetail(*m, shared)
}

// striking reports whether nw's fault plan has a mid-sweep strike still to
// come: a run on it takes the retry loop, with its budget.
func striking(nw *netsim.Network) bool {
	p := nw.Faults
	return p != nil && p.PhaseArmed() && !p.PhaseFired()
}

// soloDetail is slot m's detail in a batch of one: its own schedule or,
// when strike put the retry budget to work, a fused batch of one's and its
// re-heals.
func (o *outcome) soloDetail(m *member, strike bool) string {
	sweeps := o.res.sweeps
	switch {
	case strike && o.retries > 0 && !o.degraded:
		return fmt.Sprintf("resumed after %d mid-sweep re-heal(s); %s", o.retries, o.detail(m, fusedDetail(1, sweeps)))
	case strike:
		return o.detail(m, fusedDetail(1, sweeps))
	case m.kind.vector:
		return fmt.Sprintf("%d quantiles in %d shared k-ary sweeps (width %d)", len(m.ranks), sweeps, m.width)
	case m.ranks[0].Median:
		return fmt.Sprintf("%d k-ary sweeps (width %d)", sweeps, m.width)
	}
	return fmt.Sprintf("rank %d, %d k-ary sweeps (width %d)", m.ranks[0].K, sweeps, m.width)
}
