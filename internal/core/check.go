package core

import (
	"fmt"
	"sort"
)

// This file holds ground-truth validators for the paper's definitions,
// used by tests and by the experiment harness to score protocol outputs.
// They operate on plain slices (simulator-side omniscience), never on the
// network.

// SortedCopy returns an ascending copy of values, sorted by Sort — the same
// linear radix sort the engine's ground truth sorts its population with in
// place.
func SortedCopy(values []uint64) []uint64 {
	s := make([]uint64, len(values))
	copy(s, values)
	Sort(s)
	return s
}

// CountLess returns ℓ(y) = |{x ∈ X : x < y}| (Notation 2.2) over sorted
// values.
func CountLess(sorted []uint64, y uint64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] >= y })
}

// TrueOrderStatistic returns OS(X, k) per Definition 2.3 for integer rank
// k in [1, N]: the k-th smallest element.
func TrueOrderStatistic(sorted []uint64, k int) uint64 {
	if k < 1 || k > len(sorted) {
		panic(fmt.Sprintf("core: rank %d out of [1,%d]", k, len(sorted)))
	}
	return sorted[k-1]
}

// TrueMedian returns MEDIAN(X) = OS(X, N/2) per Definition 2.3 — the
// ⌈N/2⌉-th smallest element.
func TrueMedian(sorted []uint64) uint64 {
	n := len(sorted)
	if n == 0 {
		panic("core: median of empty multiset")
	}
	return sorted[(n+1)/2-1] // ⌈n/2⌉ in 1-indexed terms
}

// IsOrderStatistic reports whether y satisfies Definition 2.3 for the rank
// k2/2 (doubled to represent half-integer N/2 exactly): ℓ(y) < k and
// ℓ(y+1) ≥ k.
func IsOrderStatistic(sorted []uint64, k2 int64, y uint64) bool {
	return 2*int64(CountLess(sorted, y)) < k2 && 2*int64(CountLess(sorted, y+1)) >= k2
}

// IsMedian reports whether y is MEDIAN(X) per Definition 2.3.
func IsMedian(sorted []uint64, y uint64) bool {
	return IsOrderStatistic(sorted, int64(len(sorted)), y)
}

// AlphaNeeded returns the smallest rank-error parameter α for which y
// itself satisfies clause (1) of Definition 2.4 at rank k: ℓ(y) < k(1+α)
// and ℓ(y+1) ≥ k(1−α). This is the experiment harness's measured rank
// error, directly comparable to the theorems' α = 3σ guarantee.
func AlphaNeeded(sorted []uint64, k float64, y uint64) float64 {
	if k <= 0 {
		panic("core: AlphaNeeded needs k > 0")
	}
	ly := float64(CountLess(sorted, y))
	ly1 := float64(CountLess(sorted, y+1))
	alpha := 0.0
	// Need ℓ(y) < k(1+α): any α strictly above ℓ(y)/k − 1. The infimum is
	// what we report (tests compare with a strict bound in mind).
	if a := ly/k - 1; a > alpha {
		alpha = a
	}
	// Need ℓ(y+1) ≥ k(1−α): α ≥ 1 − ℓ(y+1)/k.
	if a := 1 - ly1/k; a > alpha {
		alpha = a
	}
	return alpha
}

// BetaNeeded returns the smallest value-error parameter β for which y is a
// k (α, β)-order statistic per Definition 2.4: the normalized distance from
// y to the interval of witnesses y′ satisfying clause (1) at the given α.
// maxX is the normalizer max(X) of clause (2).
func BetaNeeded(sorted []uint64, k, alpha float64, y uint64, maxX uint64) float64 {
	n := len(sorted)
	if n == 0 || maxX == 0 {
		panic("core: BetaNeeded needs items and maxX > 0")
	}
	// Witnesses y′ with ℓ(y′) < k(1+α) form y′ ≤ s[c] for c = ⌈k(1+α)⌉−1
	// (unbounded above if c ≥ n); witnesses with ℓ(y′+1) ≥ k(1−α) form
	// y′ ≥ s[c′−1] for c′ = ⌈k(1−α)⌉ (unbounded below if c′ ≤ 0).
	hiIdx := ceilF(k * (1 + alpha))
	loIdx := ceilF(k * (1 - alpha))
	var lo, hi float64
	if loIdx <= 0 {
		lo = 0
	} else {
		if loIdx > n {
			loIdx = n // rank beyond N: witness must exceed the maximum
		}
		lo = float64(sorted[loIdx-1])
	}
	if hiIdx >= n {
		hi = float64(maxX)
	} else {
		if hiIdx < 0 {
			hiIdx = 0
		}
		hi = float64(sorted[hiIdx])
	}
	fy := float64(y)
	switch {
	case fy < lo:
		return (lo - fy) / float64(maxX)
	case fy > hi:
		return (fy - hi) / float64(maxX)
	default:
		return 0
	}
}

func ceilF(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}

// TrueDistinct returns the number of distinct elements in values (ground
// truth for the Section 5 experiments).
func TrueDistinct(values []uint64) int {
	seen := make(map[uint64]struct{}, len(values))
	for _, v := range values {
		seen[v] = struct{}{}
	}
	return len(seen)
}
