package spantree

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/wire"
)

// VecCombiner is an optional Combiner specialization for aggregates whose
// partial state is a fixed-width vector of machine words — the batched
// probe plane: one convergecast carries k counts (CountVec) or a fused
// COUNT+SUM+MIN+MAX tuple instead of a single scalar. The fast engine then
// keeps the partials of the two live levels in one flat []uint64 ring on
// the run network (k words per slot), so a warm vector convergecast
// allocates nothing and sweeps levels in parallel exactly like the scalar
// path. The wire format is unchanged between paths — AppendVec must emit
// exactly the bits Encode would — so the vector path is byte-identical to
// the generic one (asserted by tests).
type VecCombiner interface {
	Combiner
	// VecWidth returns the fixed vector width k of every partial in this
	// operation. It must not change for the combiner's lifetime.
	VecWidth() int
	// LocalVec writes node n's own partial into dst (len VecWidth). dst may
	// hold stale data from an earlier operation; implementations overwrite
	// every slot.
	LocalVec(n *netsim.Node, dst []uint64)
	// MergeVec folds the child partial src into the accumulator acc
	// (both len VecWidth). It must be insensitive to child order.
	MergeVec(acc, src []uint64)
	// AppendVec encodes the partial, emitting the same bits as Encode.
	AppendVec(w *bitio.Writer, p []uint64)
	// VecBits returns exactly the number of bits AppendVec(p) would emit.
	// The reliable pooled path charges this length arithmetically and
	// hands the partial to the parent in the shared ring instead of
	// materializing the payload — same meters, same values, none of the
	// per-edge codec cost. The faulty, watched, unpooled, and goroutine
	// paths still round-trip every edge through AppendVec/DecodeVec, and
	// the cross-engine identity tests assert the equivalence.
	VecBits(p []uint64) int
	// DecodeVec parses a partial encoded by AppendVec into dst
	// (len VecWidth), overwriting every slot.
	DecodeVec(pl wire.Payload, dst []uint64) error
	// VecResult converts the root partial to the value Convergecast
	// returns — the same value the generic path would produce. The slice
	// aliases scratch shared by every engine on the run network: it is
	// valid until the next operation of any engine on that network, and
	// callers that keep it longer must copy.
	VecResult(p []uint64) any
}

// convergecastVec is Convergecast for VecCombiners: the same level sweep,
// charges, and fault decisions as the scalar path, with partials on the
// vector ring — k words per slot — instead of boxed `any` slots.
func (e *FastEngine) convergecastVec(vc VecCombiner, perEdge bool, workers int) (any, error) {
	k := vc.VecWidth()
	if k <= 0 {
		return nil, fmt.Errorf("spantree: vector combiner width %d", k)
	}
	sh, width := e.sh, e.op.s.width
	e.op.vc, e.op.k = vc, k
	sh.vec = grow(sh.vec, 2*width*k)
	run := (*FastEngine).levelVec
	if perEdge {
		run = (*FastEngine).levelVecEdges
		sh.vtmp = grow(sh.vtmp, workers*k)
	} else {
		sh.vbits = grow(sh.vbits, 2*width)
	}
	if err := e.sweep(run); err != nil {
		return nil, err
	}
	return vc.VecResult(sh.vec[:k]), nil
}

// levelVec sweeps positions [lo, hi) of level l on the reliable vector
// path: every node's partial travels to its parent in the ring itself —
// merged straight out of the children's half — and the wire cost is
// charged from VecBits (the exact length AppendVec would emit, kept beside
// the slot so the parent's receive side reads it instead of recomputing),
// the whole step in one meter-cell visit. Values and meters are
// byte-identical to the encoding paths (VecBits == len(AppendVec), merge
// input == decoded payload), which the engine-variant identity tests
// assert.
func (e *FastEngine) levelVec(_, l, lo, hi int) error {
	op, v, sh := &e.op, e.view, e.sh
	s, vc, k, plan := op.s, op.vc, op.k, op.plan
	mine, mbits := sh.vec[s.half(l)*k:], sh.vbits[s.half(l):]
	kids, kbits := sh.vec[s.half(l+1)*k:], sh.vbits[s.half(l+1):]
	base, kbase := int(s.bounds[l]), int(s.bounds[l+1])
	for i := lo; i < hi; i++ {
		u := v.Order[i]
		acc := mine[(i-base)*k : (i-base+1)*k]
		vc.LocalVec(e.nw.Nodes[u], acc)
		recvBits := 0
		for j := int(s.cs[i]) - kbase; j < int(s.cs[i+1])-kbase; j++ {
			recvBits += int(kbits[j])
			vc.MergeVec(acc, kids[j*k:(j+1)*k])
		}
		sentBits := -1
		if i > 0 { // position 0 is the root: it sends nothing
			if plan != nil && plan.Byzantine(u) {
				if bc, ok := vc.(ByzVecCombiner); ok {
					bc.CorruptVec(acc, plan.LieWord(u))
				}
			}
			sentBits = vc.VecBits(acc)
			mbits[i-base] = int32(sentBits)
		}
		e.nw.Meter.ChargeNodeSeq(u, sentBits, recvBits)
	}
	return nil
}

// levelVecEdges is levelVec with per-edge charging and per-delivery fault
// decisions: the path for watched-edge runs and message-level fault plans,
// where each delivery's fate (and its exact (from, to) pair) must be
// priced individually.
func (e *FastEngine) levelVecEdges(worker, l, lo, hi int) error {
	op, v, a := &e.op, e.view, e.sh.arenas[worker]
	s, vc, k, plan := op.s, op.vc, op.k, op.plan
	mine, kids := e.sh.vec[s.half(l)*k:], e.sh.vec[s.half(l+1)*k:]
	base, kbase := int(s.bounds[l]), int(s.bounds[l+1])
	tmp := e.sh.vtmp[worker*k : (worker+1)*k]
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
			if bc, ok := vc.(ByzVecCombiner); ok {
				bc.CorruptVec(acc, plan.LieWord(u))
			}
		}
	}
	return nil
}
