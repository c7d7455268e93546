package core

import (
	"slices"
	"sync"
)

// radixMin is the length below which Sort hands off to slices.Sort: every
// radix pass scans a 256-bucket histogram whatever the slice's length.
const radixMin = 256

// radixScratch lends Sort its scatter buffer. A pool, not a cached field:
// no scratch outlives the sorts that use it, so a long-lived process holds
// none of it between queries (two collections empty the pool).
var radixScratch sync.Pool

// Sort sorts s ascending in place: a least-significant-digit radix sort on
// 8-bit digits that skips every digit constant across s, so a domain of b
// bits costs ⌈b/8⌉ counting passes — linear in len(s) — instead of pdqsort's
// O(N log N) comparisons. Slices shorter than a few hundred elements go to
// slices.Sort.
func Sort(s []uint64) {
	n := len(s)
	if n < radixMin {
		slices.Sort(s)
		return
	}
	// A digit varies iff some element differs from the first in it.
	var diff uint64
	for _, v := range s {
		diff |= v ^ s[0]
	}
	if diff == 0 {
		return
	}
	p, _ := radixScratch.Get().(*[]uint64)
	if p == nil || cap(*p) < n {
		p = new([]uint64)
		*p = make([]uint64, n)
	}
	src, dst := s, (*p)[:n]
	passes := 0
	for sh := uint(0); sh < 64; sh += 8 {
		if byte(diff>>sh) == 0 {
			continue
		}
		// One counting pass, then a stable scatter by this digit.
		var c [256]int
		for _, v := range src {
			c[byte(v>>sh)]++
		}
		next := 0
		for b, k := range c {
			c[b], next = next, next+k
		}
		for _, v := range src {
			b := byte(v >> sh)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
		passes++
	}
	if passes&1 == 1 {
		copy(s, src)
	}
	radixScratch.Put(p)
}
