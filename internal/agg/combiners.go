// Package agg implements TAG-style in-network aggregation [9] over the
// spanning tree, and adapts it to the paper's primitive-protocol interface
// (core.Net): MIN, MAX, COUNT/COUNTP (Fact 2.1, §3.1) and the α-counting
// protocol APX COUNT (Fact 2.2) as sketch convergecasts.
//
// COUNT, SUM, MIN/MAX, the batched probe plane (CountVec, CountVecSum) and
// the fused tuple (MultiAggregate) are spantree.VecCombiners: each has one
// codec, its vector one, and every protocol reads the root's slots
// straight off ConvergecastVec. Only the APX COUNT sketch is a boxed
// spantree.Combiner. The package also owns the broadcast framing —
// DomainValue, Net.ValueWidth, NestedPreds and ProbeSetBits — which the
// robust tier prices its relay hop with.
package agg

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// DomainValue returns the item's value in domain d: what every predicate
// and aggregate of the framing reads.
func DomainValue(it netsim.Item, d core.Domain) uint64 {
	if d == core.LogDomain {
		return core.Log2Floor(it.Cur)
	}
	return it.Cur
}

// minMaxCombiner computes MIN and MAX over active items in one
// convergecast; each message carries a presence bit plus two fixed-width
// values — O(log X) bits, matching Fact 2.1.
//
// A partial is (lo, hi) with the empty partial as (1, 0): a non-empty
// partial always has lo <= hi, so lo > hi is a safe sentinel.
type minMaxCombiner struct {
	domain core.Domain
	width  int
}

var _ spantree.VecCombiner = minMaxCombiner{}

func (c minMaxCombiner) VecWidth() int { return 2 }

func (c minMaxCombiner) LocalVec(n *netsim.Node, dst []uint64) {
	dst[0], dst[1] = 1, 0
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := DomainValue(it, c.domain)
		if dst[0] > dst[1] {
			dst[0], dst[1] = v, v
			continue
		}
		dst[0], dst[1] = min(dst[0], v), max(dst[1], v)
	}
}

func (c minMaxCombiner) MergeVec(acc, src []uint64) {
	switch {
	case src[0] > src[1]:
	case acc[0] > acc[1]:
		acc[0], acc[1] = src[0], src[1]
	default:
		acc[0], acc[1] = min(acc[0], src[0]), max(acc[1], src[1])
	}
}

func (c minMaxCombiner) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	c.LocalVec(n, dst)
	for ; len(kids) > 0; kids = kids[2:] {
		c.MergeVec(dst, kids[:2])
	}
	return c.VecBits(dst)
}

// AppendVec writes the presence bit and, for a non-empty partial, the two
// fixed-width extrema.
func (c minMaxCombiner) AppendVec(w *bitio.Writer, p []uint64) {
	has := p[0] <= p[1]
	w.WriteBool(has)
	if has {
		w.WriteBits(p[0], c.width)
		w.WriteBits(p[1], c.width)
	}
}

func (c minMaxCombiner) VecBits(p []uint64) int {
	if p[0] > p[1] {
		return 1
	}
	return 1 + 2*c.width
}

func (c minMaxCombiner) DecodeVec(pl wire.Payload, dst []uint64) error {
	dst[0], dst[1] = 1, 0
	r := pl.Reader()
	has, err := r.ReadBool()
	if err != nil {
		return fmt.Errorf("agg: minmax presence: %w", err)
	}
	if !has {
		return nil
	}
	lo, err := r.ReadBits(c.width)
	if err != nil {
		return fmt.Errorf("agg: minmax lo: %w", err)
	}
	hi, err := r.ReadBits(c.width)
	if err != nil {
		return fmt.Errorf("agg: minmax hi: %w", err)
	}
	dst[0], dst[1] = lo, hi
	return nil
}

// CorruptVec maps a lie word into the minmax wire domain: an in-range fake
// minimum (any value ≤ the honest max stays inside the fixed-width field
// and keeps lo ≤ hi, so the message still decodes). A degenerate singleton
// partial at 0 lies on the max instead. Empty partials have no value to
// corrupt — the wire carries only the presence bit, so the lie would be
// detectable locally.
func (c minMaxCombiner) CorruptVec(p []uint64, lie uint64) {
	x, y := p[0], p[1]
	switch {
	case x > y: // empty partial: nothing in-domain to lie about
	case y == ^uint64(0):
		p[0] = lie
		if lie == x {
			p[0]++
		}
	case y > 0:
		p[0] = lie % (y + 1)
		if p[0] == x {
			p[0] = (x + 1) % (y + 1)
		}
	default:
		// x == y == 0: push the max up instead, clamped to the field width.
		p[1] = 1 + lie%16
		if mask := uint64(1)<<uint(c.width) - 1; c.width < 64 && p[1] > mask {
			p[1] = mask
		}
	}
}

// gammaWord is what COUNT and SUM share: a partial of one additive machine
// word, gamma-coded on the wire — a width-1 vector.
type gammaWord struct{}

func (gammaWord) VecWidth() int { return 1 }

func (gammaWord) MergeVec(acc, src []uint64) { acc[0] += src[0] }

func (gammaWord) AppendVec(w *bitio.Writer, p []uint64) { w.WriteGamma(p[0]) }

func (gammaWord) VecBits(p []uint64) int { return bitio.GammaWidth(p[0]) }

func (gammaWord) DecodeVec(pl wire.Payload, dst []uint64) (err error) {
	if dst[0], err = pl.Reader().ReadGamma(); err != nil {
		return fmt.Errorf("agg: gamma-coded partial: %w", err)
	}
	return nil
}

// CorruptVec: any corrupted value except the gamma sentinel — which
// CorruptValue never returns — is wire-legal.
func (gammaWord) CorruptVec(p []uint64, lie uint64) { p[0] = faults.CorruptValue(p[0], lie) }

// foldWord is the one-word FoldVec: own plus children's, and its gamma width.
func foldWord(own uint64, dst, kids []uint64) int {
	for _, v := range kids {
		own += v
	}
	dst[0] = own
	return bitio.GammaWidth(own)
}

// countCombiner implements COUNTP (§3.1): a gamma-coded count of active
// items satisfying the predicate. Partial counts are at most N, so messages
// are O(log N) bits.
type countCombiner struct {
	gammaWord
	domain core.Domain
	pred   wire.Pred
}

var _ spantree.VecCombiner = countCombiner{}

func (c countCombiner) local(n *netsim.Node) uint64 {
	var count uint64
	for _, it := range n.Items {
		if it.Active && c.pred.Eval(DomainValue(it, c.domain)) {
			count++
		}
	}
	return count
}

func (c countCombiner) LocalVec(n *netsim.Node, dst []uint64) { dst[0] = c.local(n) }

func (c countCombiner) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	return foldWord(c.local(n), dst, kids)
}

// sumCombiner aggregates the SUM of active item values (TAG's SUM; also the
// numerator of AVERAGE). Gamma-coded: partial sums are ≤ N·X, so messages
// are O(log N + log X) bits.
type sumCombiner struct {
	gammaWord
	domain core.Domain
	pred   wire.Pred
}

var _ spantree.VecCombiner = sumCombiner{}

func (c sumCombiner) local(n *netsim.Node) uint64 {
	var sum uint64
	for _, it := range n.Items {
		if v := DomainValue(it, c.domain); it.Active && c.pred.Eval(v) {
			sum += v
		}
	}
	return sum
}

func (c sumCombiner) LocalVec(n *netsim.Node, dst []uint64) { dst[0] = c.local(n) }

func (c sumCombiner) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	return foldWord(c.local(n), dst, kids)
}

// keyedSketch runs one APX COUNT instance (Fact 2.2): every node folds its
// matching items' hashed keys into a LogLog sketch; messages carry the m
// fixed-width registers — O(m · log log N) bits.
type keyedSketch struct {
	net      *Net
	domain   core.Domain
	pred     wire.Pred
	instance uint64
}

var _ spantree.Combiner = keyedSketch{}

func (c keyedSketch) Local(n *netsim.Node) any {
	sk := loglog.New(c.net.sketchP)
	h := c.net.instanceHasher(c.instance)
	base := c.net.keyBase[n.ID]
	for idx, it := range n.Items {
		if it.Active && c.pred.Eval(DomainValue(it, c.domain)) {
			sk.AddKey(h, base+uint64(idx))
		}
	}
	return sk
}

func (c keyedSketch) Merge(acc, child any) any {
	a := acc.(*loglog.Sketch)
	a.Merge(child.(*loglog.Sketch))
	return a
}

func (c keyedSketch) AppendPartial(w *bitio.Writer, p any) {
	p.(*loglog.Sketch).AppendTo(w)
}

func (c keyedSketch) Decode(pl wire.Payload) (any, error) {
	sk, err := loglog.DecodeSketch(pl.Reader(), c.net.sketchP)
	if err != nil {
		return nil, fmt.Errorf("agg: sketch: %w", err)
	}
	return sk, nil
}
