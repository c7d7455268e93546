package core

import "errors"

// ErrEmpty is returned when a selection query runs on an empty multiset.
var ErrEmpty = errors.New("core: empty input multiset")

var errRankZero = errors.New("core: order statistic rank k must be >= 1")

// Median computes the exact median (Fig. 1): MEDIAN(X) = OS(X, N/2), where
// N/2 may be a half-integer (Definition 2.3). It is the width-1 selection
// search: one COUNTP per sweep, the first COUNT(TRUE), along Fig. 1's
// midpoint path less the probes whose count is already known (fig1Walk).
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

// fig1Walk appends up to q probe thresholds for a rank whose candidate
// interval is iv (inside the MinMax bounds [m, M]): the first q unfixed
// nodes of Fig. 1's search tree, breadth first. Fig. 1 starts at
// y = (M+m)/2 with half-width z = 2^(⌈log(M−m)⌉−1), probes ⌈y⌉ and moves y
// by z/2 up when fewer than k items lie below, down otherwise, halving z
// down to 1/2; a non-integral final y gets Line 4.1's probe at ⌈y⌉. The
// y it can reach form a binary search tree. A node whose threshold lies at
// or below iv.lo (fewer than k below, by the interval invariant) or above
// iv.hi (at least k) is fixed: it costs no probe, and its one live child
// takes its place in the queue. An unfixed node is proposed and queues
// both children. At
// q = 1 this is Fig. 1's next probe, so width 1 never sends a COUNT Fig. 1
// would not; wider sweeps spend their budget where Fig. 1 goes next.
//
// With S = ⌈log(M−m)⌉ and e = 2^S − (M−m), the inner node at offset p
// (h levels above the leaves) probes m − g + p; the root is p = 2^(S−1)
// at h = S, and a node's children lie 2^(h−2) either side. Every p is below
// 2^S, so no span up to 2⁶⁴−1 overflows. centred is Fig. 1's g = ⌊e/2⌋,
// which moves every node with M; otherwise the tree hangs at m, one value
// below when e ≥ 2 so that m+1 is an inner node. A leaf repeats an
// ancestor's threshold or lies at or below m, except M itself when
// M − m = 2^S: that one is proposed last.
func fig1Walk(dst []uint64, m, M uint64, iv interval, q uint64, centred bool) []uint64 {
	if M <= m {
		return dst
	}
	S := ceilLog2(M - m)
	e := 1<<S - (M - m) // 1<<64 is 0: e is taken mod 2⁶⁴
	g := min(e, 2) / 2  // how far below m the tree hangs
	if centred {
		g = e / 2
	}
	// t in (iv.lo, iv.hi] ⟺ p in (pLo, pHi]; the sums saturate at 2⁶⁴−1.
	pLo, pHi := min(iv.lo-m, ^g)+g, min(iv.hi-m, ^g)+g
	type node struct{ p, h uint64 }
	var buf [64]node
	queue := buf[:0]
	if S > 0 {
		queue = append(queue, node{1 << (S - 1), S})
	}
	for head := 0; head < len(queue) && q > 0; head++ {
		n := queue[head]
		for ; n.h > 1 && (n.p <= pLo || n.p > pHi); n.h-- {
			if d := uint64(1) << (n.h - 2); n.p <= pLo {
				n.p += d
			} else {
				n.p -= d
			}
		}
		if n.p <= pLo || n.p > pHi {
			continue
		}
		dst = append(dst, m+(n.p-g))
		q--
		if n.h > 1 {
			d := uint64(1) << (n.h - 2)
			queue = append(queue, node{n.p - d, n.h - 1}, node{n.p + d, n.h - 1})
		}
	}
	if q > 0 && e == 0 && iv.lo < M && iv.hi == M {
		dst = append(dst, M)
	}
	return dst
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
