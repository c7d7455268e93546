// Package agg implements TAG-style in-network aggregation [9] over the
// spanning tree, and adapts it to the paper's primitive-protocol interface
// (core.Net): MIN, MAX, COUNT/COUNTP (Fact 2.1, §3.1) and the α-counting
// protocol APX COUNT (Fact 2.2) as sketch convergecasts.
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

// domainValue returns the item's value in domain d.
func domainValue(it netsim.Item, d core.Domain) uint64 {
	if d == core.LogDomain {
		return core.Log2Floor(it.Cur)
	}
	return it.Cur
}

// minMaxPartial is the convergecast state for the combined MIN/MAX
// protocol.
type minMaxPartial struct {
	has    bool
	lo, hi uint64
}

// minMaxCombiner computes MIN and MAX over active items in one
// convergecast; each message carries a presence bit plus two fixed-width
// values — O(log X) bits, matching Fact 2.1.
type minMaxCombiner struct {
	domain core.Domain
	width  int
}

var _ spantree.AppendCombiner = minMaxCombiner{}
var _ spantree.ByzVecCombiner = minMaxCombiner{}

func (c minMaxCombiner) local(n *netsim.Node) minMaxPartial {
	var p minMaxPartial
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := domainValue(it, c.domain)
		if !p.has {
			p = minMaxPartial{has: true, lo: v, hi: v}
			continue
		}
		if v < p.lo {
			p.lo = v
		}
		if v > p.hi {
			p.hi = v
		}
	}
	return p
}

func (c minMaxCombiner) Local(n *netsim.Node) any { return c.local(n) }

// The vector form is (lo, hi) with the empty partial as (1, 0): a
// non-empty partial always has lo <= hi, so lo > hi is a safe sentinel.

func (c minMaxCombiner) VecWidth() int { return 2 }

func (p minMaxPartial) vec(dst []uint64) {
	dst[0], dst[1] = 1, 0
	if p.has {
		dst[0], dst[1] = p.lo, p.hi
	}
}

func (c minMaxCombiner) LocalVec(n *netsim.Node, dst []uint64) { c.local(n).vec(dst) }

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

func (c minMaxCombiner) AppendVec(w *bitio.Writer, p []uint64) {
	c.append(w, p[0] <= p[1], p[0], p[1])
}

// append writes the presence bit and, for a non-empty partial, the two
// fixed-width extrema.
func (c minMaxCombiner) append(w *bitio.Writer, has bool, lo, hi uint64) {
	w.WriteBool(has)
	if has {
		w.WriteBits(lo, c.width)
		w.WriteBits(hi, c.width)
	}
}

func (c minMaxCombiner) VecBits(p []uint64) int {
	if p[0] > p[1] {
		return 1
	}
	return 1 + 2*c.width
}

func (c minMaxCombiner) DecodeVec(pl wire.Payload, dst []uint64) error {
	p, err := c.decode(pl)
	p.vec(dst)
	return err
}

// CorruptVec (spantree.ByzVecCombiner) maps a lie word into the minmax
// wire domain: an in-range fake minimum (any value ≤ the honest max stays
// inside the fixed-width field and keeps lo ≤ hi, so the message still
// decodes). A degenerate singleton partial at 0 lies on the max instead.
// Empty partials have no value to corrupt — the wire carries only the
// presence bit, so the lie would be detectable locally.
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

func (c minMaxCombiner) VecResult(p []uint64) any {
	if p[0] > p[1] {
		return minMaxPartial{}
	}
	return minMaxPartial{has: true, lo: p[0], hi: p[1]}
}

func (c minMaxCombiner) Merge(acc, child any) any {
	a, b := acc.(minMaxPartial), child.(minMaxPartial)
	if !b.has {
		return a
	}
	if !a.has {
		return b
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

func (c minMaxCombiner) AppendPartial(w *bitio.Writer, p any) {
	mm := p.(minMaxPartial)
	c.append(w, mm.has, mm.lo, mm.hi)
}

func (c minMaxCombiner) Encode(p any) wire.Payload {
	w := bitio.NewWriter(1 + 2*c.width)
	c.AppendPartial(w, p)
	return wire.FromWriter(w)
}

func (c minMaxCombiner) Decode(pl wire.Payload) (any, error) {
	p, err := c.decode(pl)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (c minMaxCombiner) decode(pl wire.Payload) (minMaxPartial, error) {
	r := pl.Reader()
	has, err := r.ReadBool()
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax presence: %w", err)
	}
	if !has {
		return minMaxPartial{}, nil
	}
	lo, err := r.ReadBits(c.width)
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax lo: %w", err)
	}
	hi, err := r.ReadBits(c.width)
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax hi: %w", err)
	}
	return minMaxPartial{has: true, lo: lo, hi: hi}, nil
}

// gammaWord is what COUNT and SUM share: a partial of one additive machine
// word, gamma-coded on the wire — a boxed uint64 on the generic path, a
// width-1 vector on the fast engine's.
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

// CorruptVec (spantree.ByzVecCombiner): any corrupted value except the
// gamma sentinel — which CorruptValue never returns — is wire-legal.
func (gammaWord) CorruptVec(p []uint64, lie uint64) { p[0] = faults.CorruptValue(p[0], lie) }

func (gammaWord) VecResult(p []uint64) any { return p[0] }

func (gammaWord) Merge(acc, child any) any { return acc.(uint64) + child.(uint64) }

func (gammaWord) AppendPartial(w *bitio.Writer, p any) { w.WriteGamma(p.(uint64)) }

func (g gammaWord) Encode(p any) wire.Payload {
	w := bitio.NewWriter(bitio.GammaWidth(p.(uint64)))
	g.AppendPartial(w, p)
	return wire.FromWriter(w)
}

func (g gammaWord) Decode(pl wire.Payload) (any, error) {
	var p [1]uint64
	if err := g.DecodeVec(pl, p[:]); err != nil {
		return nil, err
	}
	return p[0], nil
}

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

var _ spantree.AppendCombiner = countCombiner{}
var _ spantree.ByzVecCombiner = countCombiner{}

func (c countCombiner) local(n *netsim.Node) uint64 {
	var count uint64
	for _, it := range n.Items {
		if it.Active && c.pred.Eval(domainValue(it, c.domain)) {
			count++
		}
	}
	return count
}

func (c countCombiner) Local(n *netsim.Node) any { return c.local(n) }

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

var _ spantree.AppendCombiner = sumCombiner{}
var _ spantree.ByzVecCombiner = sumCombiner{}

func (c sumCombiner) local(n *netsim.Node) uint64 {
	var sum uint64
	for _, it := range n.Items {
		if v := domainValue(it, c.domain); it.Active && c.pred.Eval(v) {
			sum += v
		}
	}
	return sum
}

func (c sumCombiner) Local(n *netsim.Node) any { return c.local(n) }

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

var _ spantree.AppendCombiner = keyedSketch{}

func (c keyedSketch) Local(n *netsim.Node) any {
	sk := loglog.New(c.net.sketchP)
	h := c.net.instanceHasher(c.instance)
	base := c.net.keyBase[n.ID]
	for idx, it := range n.Items {
		if it.Active && c.pred.Eval(domainValue(it, c.domain)) {
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

func (c keyedSketch) Encode(p any) wire.Payload {
	sk := p.(*loglog.Sketch)
	w := bitio.NewWriter(sk.EncodedBits())
	c.AppendPartial(w, p)
	return wire.FromWriter(w)
}

func (c keyedSketch) Decode(pl wire.Payload) (any, error) {
	sk, err := loglog.DecodeSketch(pl.Reader(), c.net.sketchP)
	if err != nil {
		return nil, fmt.Errorf("agg: sketch: %w", err)
	}
	return sk, nil
}
