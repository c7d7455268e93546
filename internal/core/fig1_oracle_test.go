package core

import (
	"errors"
	"fmt"

	"sensoragg/internal/wire"
)

// This file is the width-1 search's oracle: the Fig. 1 binary search as
// median.go implemented it before the selection stepper took its place,
// verbatim below the marker (its exported entry points renamed
// oracleMedian and oracleOrderStatistic). TestWidthOneIsFig1 holds
// SelectRanksBatched at width 1 to it: same value or error, the same COUNT
// predicates in order less those the running interval already fixes, and
// no node charged more.

// --- verbatim from median.go ---

// DetResult reports a deterministic selection run.
type DetResult struct {
	// Value is the selected order statistic.
	Value uint64
	// Iterations is the number of binary-search iterations executed
	// (Theorem 3.2: exactly ⌈log(M−m)⌉ plus the possible Line 4.1 probe).
	Iterations int
	// CountCalls is the number of COUNTP invocations, including the
	// initial COUNT and the optional tie-break probe.
	CountCalls int
}

// Median computes the exact median (Fig. 1): MEDIAN(X) = OS(X, N/2), where
// N/2 may be a half-integer (Definition 2.3). Communication is
// O((log N)^2) bits per node (Theorem 3.2).
func oracleMedian(net Net) (DetResult, error) {
	return selectRank(net, rankHalf{num2: -1})
}

// OrderStatistic computes the k-order statistic for integer k in [1, N]
// (Section 3.4: replace N/2 by k in Lines 3.2 and 4.1 of Fig. 1).
func oracleOrderStatistic(net Net, k uint64) (DetResult, error) {
	if k == 0 {
		return DetResult{}, errors.New("core: order statistic rank k must be >= 1")
	}
	return selectRank(net, rankHalf{num2: int64(2 * k)})
}

// rankHalf carries the target rank k in doubled form to represent the
// half-integer N/2 exactly. num2 == -1 means "use N/2", resolved once the
// COUNT protocol returns N.
type rankHalf struct{ num2 int64 }

func (r rankHalf) resolve(n uint64) int64 {
	if r.num2 < 0 {
		return int64(n) // 2·(N/2)
	}
	return r.num2
}

// selectRank is the Fig. 1 binary search. All arithmetic on the midpoint y
// and half-width z — both integers or integers+1/2 — is done on doubled
// values (y2 = 2y, z2 = 2z), so the search is exact.
func selectRank(net Net, rank rankHalf) (DetResult, error) {
	var res DetResult

	// Line 1: m ← MIN(X), M ← MAX(X), n ← COUNT(X).
	lo, hi, ok := net.MinMax(Linear)
	if !ok {
		return res, ErrEmpty
	}
	n := net.Count(Linear, wire.True())
	res.CountCalls++
	if n == 0 {
		return res, ErrEmpty
	}
	k2 := rank.resolve(n)
	if k2 > int64(2*n) {
		return res, fmt.Errorf("core: rank %g exceeds N=%d", float64(k2)/2, n)
	}
	if lo == hi {
		res.Value = lo
		return res, nil
	}

	// Line 2: y ← (M+m)/2; z ← 2^(⌈log(M−m)⌉−1).
	y2 := int64(lo) + int64(hi)
	z2 := int64(1) << ceilLog2(hi-lo) // 2z = 2^⌈log(M−m)⌉

	// Line 3: binary search while z > 1/2.
	for z2 > 1 {
		res.Iterations++
		c := countLess(net, y2)
		res.CountCalls++
		// Line 3.2: if c(y) < k then y += z/2 else y −= z/2.
		if 2*int64(c) < k2 {
			y2 += z2 / 2
		} else {
			y2 -= z2 / 2
		}
		z2 /= 2 // Line 3.3
	}

	// Line 4: integer y is the answer; otherwise probe which neighbour is.
	if y2%2 == 0 {
		res.Value = clampValue(y2 / 2)
		return res, nil
	}
	t := (y2 + 1) / 2 // ⌈y⌉
	c := countLess(net, 2*t)
	res.CountCalls++
	res.Iterations++
	if 2*int64(c) < k2 {
		res.Value = clampValue(t)
	} else {
		res.Value = clampValue(t - 1)
	}
	return res, nil
}

// countLess evaluates ℓ(y) = |{x : x < y}| for doubled midpoint y2. For any
// y (integer or half-integer), ℓ(y) = |{x < ⌈y⌉}| when y is non-integral
// and |{x < y}| otherwise; both equal the count below threshold
// t = ⌊(y2+1)/2⌋. The search interval [m−z, M+z] can poke outside the
// value domain on both sides: negatives clamp to 0 (an empty count) and
// thresholds above X clamp to X+1 ("< X+1" counts everything), keeping
// predicates encodable in the network's fixed width.
func countLess(net Net, y2 int64) uint64 {
	t := floorDiv(y2+1, 2)
	if t <= 0 {
		return 0
	}
	if max := int64(net.MaxX()) + 1; t > max {
		t = max
	}
	return net.Count(Linear, wire.Less(uint64(t)))
}
