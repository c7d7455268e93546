package core

import (
	"errors"
	"math/bits"
)

// ErrEmpty is returned when a selection query runs on an empty multiset.
var ErrEmpty = errors.New("core: empty input multiset")

var errRankZero = errors.New("core: order statistic rank k must be >= 1")

// Median computes the exact median (Fig. 1): MEDIAN(X) = OS(X, N/2), where
// N/2 may be a half-integer (Definition 2.3). It is the width-1 selection
// search: one COUNTP per sweep, the first COUNT(TRUE), along Fig. 1's
// midpoint path less the probes whose count is already known (fig1Probe).
// Communication is O((log N)^2) bits per node (Theorem 3.2).
func Median(net Net) (BatchResult, error) {
	return SelectRanksBatched(net, []BatchRank{{Median: true}}, 1)
}

// OrderStatistic computes the k-order statistic for integer k in [1, N]
// (Section 3.4: replace N/2 by k in Lines 3.2 and 4.1 of Fig. 1), as the
// width-1 selection search.
func OrderStatistic(net Net, k uint64) (BatchResult, error) {
	if k == 0 {
		return BatchResult{}, errRankZero // before any traffic, as Fig. 1 does
	}
	return SelectRanksBatched(net, []BatchRank{{K: k}}, 1)
}

// fig1Probe is the width-1 placement: the next threshold of Fig. 1's
// binary search over the MinMax bounds [m, M] for a rank whose candidate
// interval is iv (iv.lo < iv.hi, inside [m, M]). Fig. 1 starts at
// y = (M+m)/2 with half-width z = 2^(⌈log(M−m)⌉−1), probes ⌈y⌉ and moves y
// by z/2 up when fewer than k items lie below, down otherwise, halving z
// down to 1/2; a non-integral final y gets Line 4.1's probe at ⌈y⌉. A
// threshold at or below iv.lo (fewer than k below, by the interval
// invariant) or above iv.hi (at least k) is a step taken without sending
// it; the first threshold inside (iv.lo, iv.hi] is returned. One exists:
// Fig. 1 pins every value of [m, M], so had every step been taken, iv
// would hold a single value.
//
// The walk is stateless, so it composes with seed windows, fused members'
// probes and resumed checkpoints. y is kept doubled (y2 = 2y) as a 128-bit
// two's-complement pair, so no M−m up to 2⁶⁴−1 overflows.
func fig1Probe(m, M uint64, iv interval) uint64 {
	yl, yh := bits.Add64(m, M, 0) // y2 = m+M: low word, high word
	for step := ceilLog2(M - m); ; step-- {
		// t = ⌈y⌉ = ⌊(y2+1)/2⌋, an arithmetic shift of the pair.
		tl, c := bits.Add64(yl, 1, 0)
		th := int64(yh+c) >> 1
		t := tl>>1 | (yh+c)<<63
		below := th < 0 || th == 0 && t <= iv.lo
		if !below && th == 0 && t <= iv.hi {
			return t
		}
		if step == 0 {
			panic("core: Fig. 1's walk left a candidate interval unresolved")
		}
		d := uint64(1) << (step - 1) // z/2, doubled
		if below {
			yl, c = bits.Add64(yl, d, 0)
			yh += c
		} else {
			yl, c = bits.Sub64(yl, d, 0)
			yh -= c
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func clampValue(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// ceilLog2 returns ⌈log2(d)⌉ for d >= 1.
func ceilLog2(d uint64) uint64 {
	if d == 0 {
		panic("core: ceilLog2(0)")
	}
	l := Log2Floor(d)
	if d != 1<<l {
		l++
	}
	return l
}
