package core

import (
	"errors"
	"fmt"
	"math"

	"sensoragg/internal/wire"
)

// Apx2Result reports an APX MEDIAN2 run (Fig. 4).
type Apx2Result struct {
	// Value is the approximate median in the *original* value domain.
	Value uint64
	// Stages is the number of zoom stages executed (≤ ⌈log 1/β⌉; fewer if
	// the active interval collapses to a point early).
	Stages int
	// Instances is the total number of α-counting instances consumed.
	Instances int
	// FinalInterval is the original-domain interval [Lo, Hi) the median was
	// localized to; its width relative to X is the achieved β.
	FinalLo, FinalHi float64
	// StageMu records µ̂(j) per stage for diagnostics.
	StageMu []uint64
	// StoppedEarly reports that a zoom landed on an empty binade (the
	// noisy inner search can return a bucket with no items, in which case
	// no further refinement is possible) and the answer comes from the
	// last non-empty localization.
	StoppedEarly bool
}

// Apx2Params tunes Fig. 4. Zero fields take defaults.
type Apx2Params struct {
	// Beta is the desired precision β: the output is within β·X of a true
	// approximate-median witness (default 1/64).
	Beta float64
	// Epsilon is the desired failure probability ε (default 0.25).
	Epsilon float64
	// Search tunes the inner APX OS invocations; its Epsilon is overridden
	// per Fig. 4 line 3.1 with ε/(2·log(1/β)).
	Search ApxParams
}

func (p Apx2Params) withDefaults() Apx2Params {
	if p.Beta <= 0 {
		p.Beta = 1.0 / 64
	}
	if p.Beta >= 1 {
		p.Beta = 0.5
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 0.25
	}
	return p
}

// ApxMedian2 computes an (α, β)-median with polyloglog communication
// (Section 4.2, Fig. 4, Theorem 4.7): nodes first replace items by their
// logarithms, an approximate order statistic localizes the median's length,
// the network zooms into that binade, rescales it over the full domain, and
// repeats ⌈log 1/β⌉ times, adjusting the target rank k by the (approximate)
// number of items discarded below the zoom window.
//
// The root maps the final log-domain result back to the original domain by
// composing the inverses of the affine stretches it broadcast; the search
// itself never touches original values after stage 1 — that is what makes
// every inner search run over a domain of size O(log N) and costs
// O((log log N)^3) bits per node in total (Corollary 4.8).
//
// The search runs over the active items, so a WHERE filter applied before
// the call selects the multiset; on return every item is reset, the
// filtered ones included.
func ApxMedian2(net Net, params Apx2Params) (Apx2Result, error) {
	params = params.withDefaults()
	var res Apx2Result
	defer net.Reset()

	stages := int(math.Ceil(math.Log2(1 / params.Beta)))
	if stages < 1 {
		stages = 1
	}
	innerEps := params.Epsilon / (2 * float64(stages))
	rRep := int(math.Ceil(2 * float64(stages) / params.Epsilon))
	maxX := net.MaxX()

	// Line 1: n ← REP COUNTP(⌈2·log(1/β)/ε⌉, TRUE); k ← n/2.
	n := RepCount(net, Linear, wire.True(), rRep)
	res.Instances += rRep
	if n <= 0 {
		return res, ErrEmpty
	}
	k := n / 2

	// Root-side inverse map: original = offO + (scaled − offS)·ratio.
	// Stage 1 scaled values *are* original values, so the map starts as the
	// identity.
	offO, offS, ratio := 0.0, 0.0, 1.0
	res.FinalLo, res.FinalHi = 0, float64(maxX)+1

	inner := params.Search
	inner.Epsilon = innerEps

	var muHat uint64
	for j := 1; j <= stages; j++ {
		// Line 3.1: µ̂ ← APX OS(X̂, ε/(2 log 1/β), k) over the log domain.
		osRes, err := apxOrderStatisticIn(net, LogDomain, inner, k)
		if errors.Is(err, ErrEmpty) {
			// The previous zoom hit an empty binade: the remaining interval
			// cannot be refined further; answer from the last localization.
			res.StoppedEarly = true
			break
		}
		if err != nil {
			return res, fmt.Errorf("core: stage %d order-statistic search: %w", j, err)
		}
		res.Instances += osRes.Instances
		muHat = osRes.Value
		res.StageMu = append(res.StageMu, muHat)
		res.Stages = j

		// The zoom window in current scaled coordinates: [winLo, winHi) is
		// the binade of µ̂ (bucket 0 holds {0, 1}).
		winLo := uint64(1) << muHat
		winHi := winLo << 1
		if muHat == 0 {
			winLo = 0
		}

		// Line 3.4's count must run over X^(j), i.e. before the zoom
		// deactivates items: REP COUNTP(⌈2 log(1/β)/ε⌉, "< 2^µ̂"). Every
		// item is at most maxX, so a window starting past it has them all
		// below — and its bound need not fit the value width: count TRUE.
		var below float64
		if winLo > 0 {
			pred := wire.Less(winLo)
			if winLo > maxX {
				pred = wire.True()
			}
			below = RepCount(net, Linear, pred, rRep)
			res.Instances += rRep
		}

		// Root-side interval update: the preimage of [winLo, winHi) under
		// the current map localizes the original median.
		res.FinalLo = offO + (float64(winLo)-offS)*ratio
		res.FinalHi = offO + (float64(winHi)-offS)*ratio

		if j == stages {
			break // the final zoom would only deactivate items we no longer need
		}

		// Lines 3.2–3.3: zoom and rescale at the nodes.
		net.Zoom(muHat)

		// Compose the inverse of the stretch s' = 1 + (s − winLo)·(X−1)/w.
		width := float64(winHi-1) - float64(winLo)
		if width == 0 {
			break // window is a single value; precision is exact
		}
		offO += (float64(winLo) - offS) * ratio
		offS = 1
		ratio *= width / (float64(maxX) - 1)

		// Adjust k: ranks below the window are discarded.
		k -= below
		if k < 1 {
			k = 1
		}
	}

	// Line 4: output the original value corresponding to µ̂ — the midpoint
	// of the final localized interval, rounded.
	mid := (res.FinalLo + res.FinalHi) / 2
	if mid < 0 {
		mid = 0
	}
	if mid > float64(maxX) {
		mid = float64(maxX)
	}
	res.Value = uint64(math.Round(mid))
	return res, nil
}
