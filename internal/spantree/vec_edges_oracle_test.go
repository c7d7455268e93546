package spantree

// Reference oracle for per-edge charging on the vector kernel: the second
// kernel, levelVecEdges, exactly as it was before levelVec absorbed it —
// every delivery of a child's partial encoded with AppendVec, priced from
// the payload, decoded with DecodeVec and merged — kept verbatim apart from
// its per-worker decode scratch, which is now the oracle driver's and
// arrives as a parameter. ConvergecastEdges drives it; edge_oracle_test.go
// holds levelVec to it from outside the package, where the real agg
// combiners are in reach.

import (
	"fmt"

	"sensoragg/internal/wire"
)

// ConvergecastEdges is e.ConvergecastVec forced onto the oracle kernel:
// the same phase clock, schedule and sweep, with the parent's encode →
// price → decode → merge round trip on every delivery.
func ConvergecastEdges(e *FastEngine, vc VecCombiner) ([]uint64, error) {
	e.watching = e.nw.Meter.Watching()
	if plan := e.nw.Faults; plan != nil && plan.PhaseArmed() {
		plan.Tick()
		if plan.PhaseFired() {
			if err := e.checkComplete(plan); err != nil {
				return nil, err
			}
		}
	}
	s, err := e.schedule()
	if err != nil {
		return nil, err
	}
	sh := e.sh
	workers := e.workersFor(s.width)
	for len(sh.arenas) < workers {
		sh.arenas = append(sh.arenas, wire.NewArena())
	}
	k := vc.VecWidth()
	e.op = sweepOp{s: s, plan: e.nw.Faults, vc: vc, k: k}
	sh.vec = grow(sh.vec, 2*s.width*k)
	vtmp := make([]uint64, workers*k)
	err = e.sweep(func(e *FastEngine, worker, l, lo, hi int) error {
		return levelVecEdges(e, vtmp, worker, l, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return sh.vec[:k], nil
}

// levelVecEdges is levelVec with per-edge charging and per-delivery fault
// decisions: the path for watched-edge runs and message-level fault plans,
// where each delivery's fate (and its exact (from, to) pair) must be
// priced individually.
func levelVecEdges(e *FastEngine, vtmp []uint64, worker, l, lo, hi int) error {
	op, v, a := &e.op, e.view, e.sh.arenas[worker]
	s, vc, k, plan := op.s, op.vc, op.k, op.plan
	mine, kids := e.sh.vec[s.half(l)*k:], e.sh.vec[s.half(l+1)*k:]
	base, kbase := int(s.bounds[l]), int(s.bounds[l+1])
	tmp := vtmp[worker*k : (worker+1)*k]
	for i := lo; i < hi; i++ {
		u := v.Order[i]
		acc := mine[(i-base)*k : (i-base+1)*k]
		vc.LocalVec(e.nw.Nodes[u], acc)
		recvBits := 0
		for j := int(s.cs[i]); j < int(s.cs[i+1]); j++ {
			child := v.Order[j]
			w := a.Writer(64)
			vc.AppendVec(w, kids[(j-kbase)*k:(j-kbase+1)*k])
			pl := wire.Borrowed(w)
			deliveries := 1
			if plan != nil {
				deliveries = plan.Deliveries(child, u)
			}
			var err error
			for d := 0; d < deliveries; d++ {
				recvBits += e.chargeDelivery(child, u, pl.Bits())
				if err = vc.DecodeVec(pl, tmp); err != nil {
					err = fmt.Errorf("spantree: decoding partial from node %d: %w", child, err)
					break
				}
				vc.MergeVec(acc, tmp)
			}
			a.Release(w)
			if err != nil {
				return err
			}
		}
		if recvBits > 0 {
			e.nw.Meter.ChargeRxSeq(u, recvBits)
		}
		if i > 0 && plan != nil && plan.Byzantine(u) {
			vc.CorruptVec(acc, plan.LieWord(u))
		}
	}
	return nil
}
