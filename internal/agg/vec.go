package agg

import (
	"fmt"
	"slices"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// This file implements the vectorized probe plane: one broadcast carries k
// predicates (or one fused multi-aggregate request), one convergecast
// returns a k-vector of partials. Batching k probes per sweep is what turns
// the selection protocol's binary search into k-ary search — the classic
// round-compression move (cf. Censor-Hillel et al., "Two for One, One for
// All"): ~log k fewer tree sweeps per query.

// countVecCombiner is the batched COUNTP: the counts of k predicates in one
// convergecast. When the probe set forms a ⊆-chain (nested), partial counts
// are nondecreasing at every node — each probe selects a superset of its
// predecessor's items in every subtree — so the wire format delta-codes the
// vector: gamma(c₀) followed by the k−1 count deltas at one shared fixed
// width, word-packed so encoding and decoding touch the bit stream O(1)
// times instead of k times. k probes then cost roughly one full count plus
// k−1 small deltas per edge, not k full counts — and the per-edge codec
// work stays nearly flat in k, which is what makes the k-ary sweep cheaper
// in wall-clock, not only in rounds.
//
// A nested partial is kept in the form the wire carries: the histogram —
// slot i counts the items whose first matching probe is i, which is c₀ in
// slot 0 and the count deltas after it. The form is additive under merge
// like the counts themselves, a node's own reading is one increment, and
// encoding, pricing and decoding move the slots as they are; the counts
// the caller asked for are the histogram's prefix sums, taken once, at the
// root (Net.runCountVec). A general probe set keeps plain per-probe counts.
type countVecCombiner struct {
	domain core.Domain
	preds  []wire.Pred
	nested bool
	// withSum widens the vector by one trailing slot carrying the SUM of
	// all active items — the aggregate rider of the fused sweep
	// (CountVecSum): fused-aggregate queries in a fusion batch get their
	// SUM from the same convergecast that answers the selection probes.
	// The slot is additive under merge and gamma-coded after the count
	// part, so it costs O(log ΣX) bits per edge, not another sweep.
	withSum bool
	// chain holds the thresholds of a nested Less-chain (TRUE as 2⁶⁴−1),
	// so items are bucketed by a closure-free search (chainFirstMatch).
	chain []uint64
}

// vecWidth is the partial-vector width: one slot per predicate, plus the
// optional sum rider.
func (c *countVecCombiner) vecWidth() int {
	if c.withSum {
		return len(c.preds) + 1
	}
	return len(c.preds)
}

var _ spantree.VecCombiner = (*countVecCombiner)(nil)

// NestedPreds reports whether the probe set forms a ⊆-chain — ascending
// strict-less thresholds, optionally topped by TRUE — which guarantees
// monotone partial counts in every subtree and enables the delta-gamma
// vector encoding. The selection search always probes such chains.
func NestedPreds(preds []wire.Pred) bool {
	for i, p := range preds {
		switch p.Kind {
		case wire.PredLess:
			if i > 0 {
				prev := preds[i-1]
				if prev.Kind != wire.PredLess || prev.A > p.A {
					return false
				}
			}
		case wire.PredTrue:
			// TRUE is the top of the chain: everything ⊆ TRUE. Anything
			// after it would have to be TRUE again to stay nested; only
			// the final slot may hold it.
			if i != len(preds)-1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// buildChain extracts the threshold array of a nested probe set into buf
// (reused across sweeps): Less(t) contributes t, the optional trailing TRUE
// contributes 2⁶⁴−1, which every value compares below.
func buildChain(preds []wire.Pred, buf []uint64) []uint64 {
	buf = slices.Grow(buf[:0], len(preds))
	for _, p := range preds {
		if p.Kind == wire.PredTrue {
			buf = append(buf, ^uint64(0))
		} else {
			buf = append(buf, p.A)
		}
	}
	return buf
}

func (c *countVecCombiner) VecWidth() int { return c.vecWidth() }

func (c *countVecCombiner) LocalVec(n *netsim.Node, dst []uint64) {
	clear(dst)
	c.addLocal(n, dst)
}

// addLocal adds node n's own items to the partial p. On a nested chain
// item v matches probes [firstMatch, k), so the histogram form takes one
// increment per item: the bucket of its first matching probe, none when it
// matches no probe at all.
func (c *countVecCombiner) addLocal(n *netsim.Node, p []uint64) {
	k := len(c.preds)
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := DomainValue(it, c.domain)
		if c.withSum {
			p[k] += v
		}
		if c.nested {
			if lo := c.chainFirstMatch(v); lo < k {
				p[lo]++
			}
			continue
		}
		for i, pr := range c.preds {
			if pr.Eval(v) {
				p[i]++
			}
		}
	}
}

// chainFirstMatch returns the first chain index whose probe matches v —
// the first probe the item counts toward. Less slots match v < threshold;
// a trailing TRUE (sentinel 2⁶⁴−1, only ever the final slot) matches
// everything, so a value of exactly 2⁶⁴−1 — which no strict-less
// comparison admits — still lands on it. The predicate kind, not the
// sentinel value, decides: a genuine Less(2⁶⁴−1) probe must not match it.
//
// The chain ascends, so the answer is the number of thresholds ≤ v: a
// lower-bound bisection. Sensor readings fall anywhere in the chain, which
// makes a bisection's branches coin flips, so each step takes its half by
// masking it with the comparison instead of branching on it — the compiler
// keeps a conditional move off a value that feeds a load address, but not
// a SETcc — and the only branch left is the loop's own, which depends on
// len(chain) alone.
func (c *countVecCombiner) chainFirstMatch(v uint64) int {
	chain := c.chain
	lo := 0
	for n := len(chain); n > 0; {
		// Thresholds ≤ v number lo plus those among chain[lo:lo+n]: if the
		// middle one is ≤ v so is everything before it, and the count moves
		// to the upper half; n>>1 candidates remain either way.
		half := n >> 1
		lo += (n - half) & -int(b2i(chain[lo+half] <= v))
		n = half
	}
	if lo == len(chain) && v == ^uint64(0) && len(c.preds) > 0 && c.preds[len(c.preds)-1].Kind == wire.PredTrue {
		return len(c.preds) - 1
	}
	return lo
}

func (c *countVecCombiner) MergeVec(acc, src []uint64) {
	for i, v := range src {
		acc[i] += v
	}
}

// FoldVec copies the first child instead of zeroing and adding it.
func (c *countVecCombiner) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	if len(kids) == 0 {
		clear(dst)
	} else {
		k := copy(dst, kids)
		for kids = kids[k:]; len(kids) > 0; kids = kids[k:] {
			c.MergeVec(dst, kids[:k])
		}
	}
	c.addLocal(n, dst)
	return c.VecBits(dst)
}

func (c *countVecCombiner) AppendVec(w *bitio.Writer, p []uint64) {
	if c.withSum {
		// The packed histogram covers the count part only; the sum rider
		// is gamma-coded after it.
		c.appendCounts(w, p[:len(c.preds)])
		w.WriteGamma(p[len(c.preds)])
		return
	}
	c.appendCounts(w, p)
}

// appendCounts encodes the count part of a partial vector.
func (c *countVecCombiner) appendCounts(w *bitio.Writer, p []uint64) {
	if !c.nested {
		for _, v := range p {
			w.WriteGamma(v)
		}
		return
	}
	w.WriteGamma(p[0])
	if len(p) == 1 {
		return
	}
	// Shared fixed width for the buckets after the first (stored as
	// width−1 in 6 bits, so widths 1..64 are representable), then the
	// buckets word-packed MSB-first: one WriteBits call covers as many
	// slots as fit 64 bits.
	wmax := chainDeltaWidth(p)
	w.WriteBits(uint64(wmax-1), 6)
	for i := 1; i < len(p); {
		m := min(64/wmax, len(p)-i)
		var word uint64
		for _, v := range p[i : i+m] {
			word = word<<uint(wmax) | v
		}
		w.WriteBits(word, m*wmax)
		i += m
	}
}

// chainDeltaWidth is the shared fixed width of a chain partial's buckets
// after the first — the adjacent deltas of the cumulative counts — and the
// single definition AppendVec and VecBits both derive from, so the
// arithmetic charge of the direct path can never drift from the emitted
// encoding. The widest bucket is as wide as the OR of all of them.
func chainDeltaWidth(p []uint64) int {
	var or uint64
	for _, v := range p[1:] {
		or |= v
	}
	return bitio.WidthOf(or)
}

func (c *countVecCombiner) VecBits(p []uint64) int {
	if c.withSum {
		return c.countBits(p[:len(c.preds)]) + bitio.GammaWidth(p[len(c.preds)])
	}
	return c.countBits(p)
}

// countBits is the encoded length of the count part, the arithmetic twin
// of appendCounts.
func (c *countVecCombiner) countBits(p []uint64) int {
	if !c.nested {
		bits := 0
		for _, v := range p {
			bits += bitio.GammaWidth(v)
		}
		return bits
	}
	bits := bitio.GammaWidth(p[0])
	if len(p) == 1 {
		return bits
	}
	return bits + 6 + (len(p)-1)*chainDeltaWidth(p)
}

func (c *countVecCombiner) DecodeVec(pl wire.Payload, dst []uint64) error {
	r := pl.Reader()
	if c.withSum {
		if err := c.decodeCounts(r, dst[:len(c.preds)]); err != nil {
			return err
		}
		sum, err := r.ReadGamma()
		if err != nil {
			return fmt.Errorf("agg: countvec sum rider: %w", err)
		}
		dst[len(c.preds)] = sum
		return nil
	}
	return c.decodeCounts(r, dst)
}

// decodeCounts parses the count part encoded by appendCounts.
func (c *countVecCombiner) decodeCounts(r *bitio.Reader, dst []uint64) error {
	if !c.nested {
		for i := range dst {
			v, err := r.ReadGamma()
			if err != nil {
				return fmt.Errorf("agg: countvec slot %d: %w", i, err)
			}
			dst[i] = v
		}
		return nil
	}
	c0, err := r.ReadGamma()
	if err != nil {
		return fmt.Errorf("agg: countvec base count: %w", err)
	}
	dst[0] = c0
	if len(dst) == 1 {
		return nil
	}
	wf, err := r.ReadBits(6)
	if err != nil {
		return fmt.Errorf("agg: countvec delta width: %w", err)
	}
	wmax := int(wf) + 1
	mask := uint64(1)<<uint(wmax) - 1
	if wmax == 64 {
		mask = ^uint64(0)
	}
	for i := 1; i < len(dst); {
		m := 64 / wmax
		if m > len(dst)-i {
			m = len(dst) - i
		}
		word, err := r.ReadBits(m * wmax)
		if err != nil {
			return fmt.Errorf("agg: countvec deltas: %w", err)
		}
		for j := m - 1; j >= 0; j-- {
			dst[i+j] = word & mask
			word >>= uint(wmax)
		}
		i += m
	}
	return nil
}

// CorruptVec maps a lie word into the probe
// plane's wire domain. A nested ⊆-chain's counts must stay monotone
// nondecreasing, so the lie is one uniform shift of every cumulative
// count — in histogram form, a lie about the first bucket alone.
// Non-nested slots are gamma-coded independently and corrupted per slot.
// The sum rider (additive, gamma-coded after the counts) lies separately.
func (c *countVecCombiner) CorruptVec(p []uint64, lie uint64) {
	k := len(c.preds)
	if c.nested {
		p[0] = faults.CorruptValue(p[0], lie)
	} else {
		for i := 0; i < k; i++ {
			p[i] = faults.CorruptValue(p[i], lie+uint64(i)*0x9e3779b97f4a7c15)
		}
	}
	if c.withSum {
		p[k] = faults.CorruptValue(p[k], lie^0x5851f42d4c957f2d)
	}
}

// fusedCombiner computes COUNT, SUM, MIN and MAX of the items matching one
// predicate in a single convergecast — four Fact 2.1 protocols fused into
// one vector sweep. Messages carry gamma(count), gamma(sum) and, when the
// partial is non-empty, the two fixed-width extrema: O(log N + log X) bits,
// the same order as one SUM message.
type fusedCombiner struct {
	domain core.Domain
	pred   wire.Pred
	width  int
}

// Slots of a fused partial. An empty partial is (0, 0, ^0, 0): the extrema
// sentinels are absorbing under min/max merge, and count==0 keeps them off
// the wire.
const (
	fusedCount = iota
	fusedSum
	fusedLo
	fusedHi
	fusedWidth
)

var _ spantree.VecCombiner = (*fusedCombiner)(nil)

func (c *fusedCombiner) VecWidth() int { return fusedWidth }

func (c *fusedCombiner) LocalVec(n *netsim.Node, dst []uint64) {
	dst[fusedCount], dst[fusedSum] = 0, 0
	dst[fusedLo], dst[fusedHi] = ^uint64(0), 0
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := DomainValue(it, c.domain)
		if !c.pred.Eval(v) {
			continue
		}
		dst[fusedCount]++
		dst[fusedSum] += v
		if v < dst[fusedLo] {
			dst[fusedLo] = v
		}
		if v > dst[fusedHi] {
			dst[fusedHi] = v
		}
	}
}

func (c *fusedCombiner) MergeVec(acc, src []uint64) {
	acc[fusedCount] += src[fusedCount]
	acc[fusedSum] += src[fusedSum]
	if src[fusedLo] < acc[fusedLo] {
		acc[fusedLo] = src[fusedLo]
	}
	if src[fusedHi] > acc[fusedHi] {
		acc[fusedHi] = src[fusedHi]
	}
}

func (c *fusedCombiner) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	c.LocalVec(n, dst)
	for ; len(kids) > 0; kids = kids[fusedWidth:] {
		c.MergeVec(dst, kids[:fusedWidth])
	}
	return c.VecBits(dst)
}

func (c *fusedCombiner) AppendVec(w *bitio.Writer, p []uint64) {
	w.WriteGamma(p[fusedCount])
	w.WriteGamma(p[fusedSum])
	if p[fusedCount] > 0 {
		w.WriteBits(p[fusedLo], c.width)
		w.WriteBits(p[fusedHi], c.width)
	}
}

func (c *fusedCombiner) VecBits(p []uint64) int {
	bits := bitio.GammaWidth(p[fusedCount]) + bitio.GammaWidth(p[fusedSum])
	if p[fusedCount] > 0 {
		bits += 2 * c.width
	}
	return bits
}

func (c *fusedCombiner) DecodeVec(pl wire.Payload, dst []uint64) error {
	r := pl.Reader()
	count, err := r.ReadGamma()
	if err != nil {
		return fmt.Errorf("agg: fused count: %w", err)
	}
	sum, err := r.ReadGamma()
	if err != nil {
		return fmt.Errorf("agg: fused sum: %w", err)
	}
	dst[fusedCount], dst[fusedSum] = count, sum
	dst[fusedLo], dst[fusedHi] = ^uint64(0), 0
	if count > 0 {
		if dst[fusedLo], err = r.ReadBits(c.width); err != nil {
			return fmt.Errorf("agg: fused min: %w", err)
		}
		if dst[fusedHi], err = r.ReadBits(c.width); err != nil {
			return fmt.Errorf("agg: fused max: %w", err)
		}
	}
	return nil
}

// CorruptVec: the fused wire format gates the
// fixed-width extrema on count > 0, so the lie corrupts count and sum but
// keeps the partial's emptiness — an empty partial stays empty (its only
// wire content is two zero gammas) and a non-empty one keeps count ≥ 1 so
// the extrema slots remain present and in range.
func (c *fusedCombiner) CorruptVec(p []uint64, lie uint64) {
	if p[fusedCount] == 0 {
		return
	}
	count := faults.CorruptValue(p[fusedCount], lie)
	if count == 0 {
		count = p[fusedCount] + 1
	}
	p[fusedCount] = count
	p[fusedSum] = faults.CorruptValue(p[fusedSum], lie^0x5851f42d4c957f2d)
}
