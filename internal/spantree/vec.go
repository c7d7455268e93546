package spantree

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/wire"
)

// VecCombiner is an optional Combiner specialization for aggregates whose
// partial state is a fixed-width vector of machine words: the batched
// probe plane (k counts in one convergecast), the fused
// COUNT+SUM+MIN+MAX tuple, and the Fact 2.1 scalars at width 1 (COUNT,
// SUM) and 2 (MIN/MAX). The fast engine keeps the partials of the two live
// levels in one flat []uint64 ring on the run network (k words per slot),
// so a warm vector convergecast allocates nothing and boxes nothing.
//
// What the k words mean is the combiner's business: the engine only moves
// them between LocalVec/MergeVec/FoldVec and the codec, so a combiner is
// free to keep partials in whatever form makes those cheap — the wire's
// own, typically — as long as every method agrees on it. The wire format
// is unchanged between paths — AppendVec must emit exactly the bits Encode
// would for the same partial — so the vector path is byte-identical to the
// generic one (asserted by tests). Only the root's partial leaves the
// engine, through VecResult; turning it into the value the protocol
// promises is for VecResult or its caller to finish.
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
	// FoldVec is one node's whole step on the reliable path, in one call
	// and one pass: it writes n's outgoing partial — n's own contribution
	// merged with its children's partials, which lie back to back in kids
	// (len(kids) a multiple of VecWidth, zero for a leaf) — into dst,
	// overwriting every slot, and returns its encoded length. In dst's
	// contents and in the returned length alike it must equal
	// LocalVec(n, dst), then MergeVec(dst, child) for every child in kids,
	// then VecBits(dst) — the vocabulary the per-edge branch uses, and the
	// oracle the fold is tested against.
	FoldVec(n *netsim.Node, dst, kids []uint64) int
	// AppendVec encodes the partial, emitting the same bits as Encode.
	AppendVec(w *bitio.Writer, p []uint64)
	// VecBits returns exactly the number of bits AppendVec(p) would emit,
	// and fails where AppendVec fails. The fast engine charges this length
	// arithmetically and hands the partial to the parent in the shared
	// ring instead of materializing the payload — on the reliable path and
	// under drop/dup plans and a watched edge alike, with each delivery
	// priced from it — so no fast-engine edge round-trips through the
	// codec. Only the goroutine reference engine still encodes and decodes
	// every edge, and the cross-engine identity tests assert the
	// equivalence.
	VecBits(p []uint64) int
	// DecodeVec parses a partial encoded by AppendVec into dst
	// (len VecWidth), overwriting every slot.
	DecodeVec(pl wire.Payload, dst []uint64) error
	// VecResult converts the root partial to the value Convergecast
	// returns — the same value the generic path would produce. A slice
	// result may alias scratch shared by every engine on the run network:
	// it is valid until the next operation of any engine on that network,
	// and callers that keep it longer must copy.
	VecResult(p []uint64) any
}

// convergecastVec is Convergecast for VecCombiners: the same level sweep,
// charges, and fault decisions as the generic path, with partials on the
// vector ring — k words per slot — instead of boxed `any` slots.
func (e *FastEngine) convergecastVec(vc VecCombiner) (any, error) {
	k := vc.VecWidth()
	if k <= 0 {
		return nil, fmt.Errorf("spantree: vector combiner width %d", k)
	}
	sh, width := e.sh, e.op.s.width
	e.op.vc, e.op.k = vc, k
	sh.vec = grow(sh.vec, 2*width*k)
	sh.vbits = grow(sh.vbits, 2*width)
	if err := e.sweep((*FastEngine).levelVec); err != nil {
		return nil, err
	}
	return vc.VecResult(sh.vec[:k]), nil
}

// levelVec sweeps positions [lo, hi) of level l. Every node's partial
// travels to its parent in the ring itself — a node's children are one
// contiguous run of the other half — with its exact encoded length (what
// AppendVec would emit) kept beside the slot, so the parent's receive side
// reads it instead of recomputing. On the reliable path a node's step is
// one FoldVec and one meter-cell visit. Under per-edge charging (a watched
// edge, or a plan whose drop/dup decisions reshape what each endpoint
// pays) the parent prices and merges every delivery of each child's slot
// on its own: a duplicated partial is merged and charged twice, a dropped
// one neither. A Byzantine sender is the rare path on both: its partial is
// corrupted after the honest step and priced again. Values and meters are
// byte-identical to the codec paths (VecBits == len(AppendVec), merge
// input == decoded payload), which the oracle tests assert.
func (e *FastEngine) levelVec(_, l, lo, hi int) error {
	op, sh := &e.op, e.sh
	s, vc, k, plan, perEdge := op.s, op.vc, op.k, op.plan, op.perEdge
	nodes, meter, order, cs := e.nw.Nodes, e.nw.Meter, e.view.Order, s.cs
	bc, _ := vc.(ByzVecCombiner)
	mine, mbits := sh.vec[s.half(l)*k:], sh.vbits[s.half(l):]
	kids, kbits := sh.vec[s.half(l+1)*k:], sh.vbits[s.half(l+1):]
	base, kbase := int(s.bounds[l]), int(s.bounds[l+1])
	for i := lo; i < hi; i++ {
		u := order[i]
		j0, j1 := int(cs[i])-kbase, int(cs[i+1])-kbase
		acc := mine[(i-base)*k : (i-base+1)*k]
		sentBits, recvBits := 0, 0
		if perEdge {
			vc.LocalVec(nodes[u], acc)
			for j := j0; j < j1; j++ {
				child := order[kbase+j]
				deliveries := 1
				if plan != nil {
					deliveries = plan.Deliveries(child, u)
				}
				for range deliveries {
					recvBits += e.chargeDelivery(child, u, int(kbits[j]))
					vc.MergeVec(acc, kids[j*k:(j+1)*k])
				}
			}
			if i > 0 {
				sentBits = vc.VecBits(acc)
			}
		} else {
			sentBits = vc.FoldVec(nodes[u], acc, kids[j0*k:j1*k])
			for _, b := range kbits[j0:j1] {
				recvBits += int(b)
			}
		}
		if i == 0 { // position 0 is the root: it sends nothing
			sentBits = -1
		} else {
			if plan != nil && bc != nil && plan.Byzantine(u) {
				bc.CorruptVec(acc, plan.LieWord(u))
				sentBits = vc.VecBits(acc)
			}
			mbits[i-base] = int32(sentBits)
		}
		if perEdge {
			sentBits = -1 // each delivery charged the sender at its parent
		}
		meter.ChargeNodeSeq(u, sentBits, recvBits)
	}
	return nil
}
