package agg

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/obs"
	"sensoragg/internal/wire"
)

// This file provides the TAG-style aggregate queries of Fact 2.1 as
// stand-alone protocols: the E1 experiment measures their per-node
// communication directly, and the examples use them as the "easy"
// aggregates the paper contrasts the median with.

// Sum runs the SUM aggregate over active items matching pred in domain d.
func (n *Net) Sum(d core.Domain, pred wire.Pred) uint64 {
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opSum, d)
	pred.AppendTo(w, vw)
	n.ops.Broadcast(wire.Borrowed(w), nil)
	n.scomb = sumCombiner{domain: d, pred: pred}
	p, err := n.ops.ConvergecastVec(&n.scomb)
	if err != nil {
		// Wrapped error value, not a string — the engine's recover
		// errors.As through it for the mid-flight retry policy.
		panic(fmt.Errorf("agg: sum convergecast: %w", err))
	}
	return p[0]
}

// Min runs the MIN aggregate (Fact 2.1) over active items in domain d.
// It returns ok=false for an empty active set.
func (n *Net) Min(d core.Domain) (uint64, bool) {
	lo, _, ok := n.MinMax(d)
	return lo, ok
}

// Max runs the MAX aggregate (Fact 2.1) over active items in domain d.
func (n *Net) Max(d core.Domain) (uint64, bool) {
	_, hi, ok := n.MinMax(d)
	return hi, ok
}

// Average runs TAG's AVERAGE: a SUM and a COUNT protocol, divided at the
// root. ok is false when no items match.
func (n *Net) Average(d core.Domain, pred wire.Pred) (float64, bool) {
	sum := n.Sum(d, pred)
	count := n.Count(d, pred)
	if count == 0 {
		return 0, false
	}
	return float64(sum) / float64(count), true
}

// ApxCount runs a single α-counting instance (Fact 2.2) and returns the
// estimate.
func (n *Net) ApxCount(d core.Domain, pred wire.Pred) float64 {
	return n.ApxCountRep(d, pred, 1)[0]
}

// CountVec implements core.Net: the batched COUNTP probe plane. One
// broadcast carries all k predicates under one opcode, one vector
// convergecast returns the k counts — the sweep the k-ary selection search
// batches its probes into. The counts are appended into dst[:0] (pass a
// reused buffer to keep the warm path allocation-free); an empty probe set
// returns dst[:0] without touching the network.
//
// When the predicates form a ⊆-chain (ascending strict-less thresholds,
// optionally topped by TRUE — the shape every selection sweep probes), the
// vector is delta-coded in both directions: the broadcast ships the first
// threshold at full width and the remaining k−1 as fixed-width ascending
// deltas (nodes reconstruct the chain by prefix-summing), and the
// convergecast delta-gamma codes the monotone partial counts — so k probes
// cost roughly one full probe plus k−1 deltas per edge, not k full probes.
func (n *Net) CountVec(d core.Domain, preds []wire.Pred, dst []uint64) []uint64 {
	if len(preds) == 0 {
		return dst[:0]
	}
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opCountVec, d)
	nested := n.appendProbeSet(w, preds, vw)
	out := n.runCountVec(d, preds, nested, false)
	return append(dst[:0], out...)
}

// appendProbeSet writes the probe-plane broadcast body shared by CountVec
// and CountVecSum: the chain/general flag, the probe count, and either the
// delta-coded threshold chain or the individually-encoded predicates. It
// reports whether the probe set is nested (the ⊆-chain shape).
func (n *Net) appendProbeSet(w *bitio.Writer, preds []wire.Pred, vw int) bool {
	nested := NestedPreds(preds)
	chain, deltaW := chainDeltas(preds, nested)
	w.WriteBool(chain)
	w.WriteGamma(uint64(len(preds)))
	if chain {
		w.WriteBits(preds[0].A, vw)
		if len(preds) > 1 {
			// Stored as width−1 so widths 1..64 fit the 6-bit field —
			// width 64 happens on full-uint64 domains (the convergecast
			// side encodes its delta width the same way).
			w.WriteBits(uint64(deltaW-1), 6)
			for i := 1; i < len(preds); i++ {
				w.WriteBits(preds[i].A-preds[i-1].A, deltaW)
			}
		}
	} else {
		for _, p := range preds {
			p.AppendTo(w, vw)
		}
	}
	return nested
}

// ProbeSetBits is the length of the probe-set body appendProbeSet writes
// for preds at value width vw — the announce the robust tier relays to
// each sector root, priced from the one framing definition.
func ProbeSetBits(preds []wire.Pred, vw int) int {
	chain, deltaW := chainDeltas(preds, NestedPreds(preds))
	bits := 1 + bitio.GammaWidth(uint64(len(preds)))
	if !chain {
		for _, p := range preds {
			bits += p.EncodedBits(vw)
		}
		return bits
	}
	bits += vw
	if len(preds) > 1 {
		bits += 6 + (len(preds)-1)*deltaW
	}
	return bits
}

// chainDeltas reports whether a non-empty probe set travels as a
// delta-coded threshold chain — nested, and not topped by TRUE — and if so
// the shared width of its threshold deltas.
func chainDeltas(preds []wire.Pred, nested bool) (chain bool, deltaW int) {
	if !nested || preds[len(preds)-1].Kind != wire.PredLess {
		return false, 0
	}
	deltaW = 1
	for i := 1; i < len(preds); i++ {
		deltaW = max(deltaW, bitio.WidthOf(preds[i].A-preds[i-1].A))
	}
	return true, deltaW
}

// runCountVec broadcasts the already-written probe payload and runs the
// vector convergecast, returning the k counts (plus the trailing sum slot
// when withSum). A nested probe set travels as a histogram
// (countVecCombiner); the root's prefix sum here turns it into the counts,
// whichever engine path carried it.
func (n *Net) runCountVec(d core.Domain, preds []wire.Pred, nested, withSum bool) []uint64 {
	if sk := obs.Active(); sk != nil {
		n.obsCountVec(sk, preds, nested, withSum)
	}
	n.ops.Broadcast(wire.Borrowed(&n.bw), nil)
	n.cvcomb = countVecCombiner{domain: d, preds: preds, nested: nested, withSum: withSum}
	if nested {
		n.chainBuf = buildChain(preds, n.chainBuf)
		n.cvcomb.chain = n.chainBuf
	}
	p, err := n.ops.ConvergecastVec(&n.cvcomb)
	if err != nil {
		panic(fmt.Errorf("agg: countvec convergecast: %w", err))
	}
	if nested {
		for i := 1; i < len(preds); i++ {
			p[i] += p[i-1]
		}
	}
	return p
}

// CountVecSum is CountVec widened by the fused-aggregate rider: the same
// single broadcast–convergecast answers the k probe counts and carries the
// SUM of all active items in one extra vector slot — so a fusion batch
// whose members want COUNT/SUM/AVG aggregates pays no extra sweep for
// them (COUNT rides the chain's top probe, MIN/MAX ride the batch's
// MinMax round). The broadcast reuses the MultiAggregate opcode with the
// vector-form flag set; one bit distinguishes the two shapes on the wire.
// The counts are appended into dst[:0]; an empty probe set returns dst[:0]
// and sum 0 without touching the network.
func (n *Net) CountVecSum(d core.Domain, preds []wire.Pred, dst []uint64) (counts []uint64, sum uint64) {
	if len(preds) == 0 {
		return dst[:0], 0
	}
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opMultiAgg, d)
	w.WriteBool(true) // vector probe-plane form
	nested := n.appendProbeSet(w, preds, vw)
	out := n.runCountVec(d, preds, nested, true)
	return append(dst[:0], out[:len(preds)]...), out[len(preds)]
}

// MultiAggregate runs the fused multi-aggregate sweep: COUNT, SUM, MIN and
// MAX of the active items matching pred in domain d, answered by one
// broadcast and one vector convergecast instead of four separate Fact 2.1
// protocols. ok is false when no items match.
func (n *Net) MultiAggregate(d core.Domain, pred wire.Pred) (count, sum, lo, hi uint64, ok bool) {
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opMultiAgg, d)
	w.WriteBool(false) // scalar form (the vector form is CountVecSum)
	pred.AppendTo(w, vw)
	n.ops.Broadcast(wire.Borrowed(w), nil)
	n.facomb = fusedCombiner{domain: d, pred: pred, width: vw}
	p, err := n.ops.ConvergecastVec(&n.facomb)
	if err != nil {
		panic(fmt.Errorf("agg: fused convergecast: %w", err))
	}
	if p[fusedCount] == 0 {
		return 0, 0, 0, 0, false
	}
	return p[fusedCount], p[fusedSum], p[fusedLo], p[fusedHi], true
}
