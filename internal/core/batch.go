package core

import (
	"fmt"
	"math/bits"
	"slices"

	"sensoragg/internal/wire"
)

// DefaultProbeWidth is the default number of COUNT probes batched into one
// CountVec sweep by the k-ary selection search. 8 probes per sweep cut the
// Fig. 1 binary search's ~log₂X sequential sweeps to ~log₉X, a ≥3x sweep
// reduction at the simulator's default domains. Width 1 is Fig. 1 itself:
// its midpoint path, less the probes whose count the search already knows
// (see fig1Probe), so it never sends a COUNT Fig. 1 would not.
const DefaultProbeWidth = 8

// MaxProbeWidth caps the probe batch width. Beyond ~log₂X probes a sweep
// cannot narrow any further, and the cap keeps a hostile or mistyped width
// (engine specs and CLI flags feed this directly) from sizing gigabyte
// probe buffers; SelectRanksBatched clamps rather than errors so every
// entry point shares one rule.
const MaxProbeWidth = 1024

// BatchRank specifies one requested order statistic for the batched
// selection search. Exactly one of the three forms is used:
//
//   - Median resolves to the paper's N/2 rank (Definition 2.3) once the
//     protocol has learned N — the same statistic Median returns.
//   - Phi, when nonzero, resolves to the ⌈Phi·N⌉-th smallest (min rank 1),
//     the quantile convention of the query layer.
//   - K is an absolute 1-based rank, as in OrderStatistic.
type BatchRank struct {
	K      uint64  `json:"k,omitempty"`
	Phi    float64 `json:"phi,omitempty"`
	Median bool    `json:"median,omitempty"`
}

// resolve turns the rank spec into the integer rank j in [1, n]: the search
// answers the j-th smallest element of the active multiset.
func (r BatchRank) resolve(n uint64) (uint64, error) {
	var j uint64
	switch {
	case r.Median:
		j = (n + 1) / 2 // ⌈N/2⌉: where Definition 2.3's half-integer rank lands
	case r.Phi != 0:
		if r.Phi < 0 || r.Phi > 1 {
			return 0, fmt.Errorf("core: quantile phi %g out of (0,1]", r.Phi)
		}
		j = QuantileRank(r.Phi, n)
	default:
		if r.K == 0 {
			return 0, errRankZero
		}
		j = r.K
	}
	if j > n {
		return 0, fmt.Errorf("core: rank %d exceeds N=%d", j, n)
	}
	return j, nil
}

// QuantileRank is the quantile-to-rank convention shared by every layer:
// the φ-quantile of an N-element multiset is the ⌈φ·N⌉-th smallest, with a
// floor of rank 1. The engine and query layers resolve ground-truth ranks
// through this same function, so the protocol answer and the simulator
// truth can never disagree on rounding.
func QuantileRank(phi float64, n uint64) uint64 {
	k := uint64(phi * float64(n))
	if float64(k) < phi*float64(n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// BatchResult reports a batched selection run.
type BatchResult struct {
	// Values holds the selected order statistics, one per requested rank,
	// in input order.
	Values []uint64
	// Sweeps is the number of CountVec probe sweeps executed — the
	// round-trip count the batching compresses. The MinMax round is not
	// included; COUNT(TRUE) is folded into the first sweep.
	Sweeps int
	// Probes is the total number of predicates shipped across all sweeps.
	Probes int
	// SeededSweeps is the number of sweeps biased by delta-narrowing seed
	// windows (SelectRanksSeeded); SeedHit reports whether every hinted
	// answer landed inside its window.
	SeededSweeps int
	SeedHit      bool
}

// SelectRanksBatched answers every requested order statistic with a shared
// schedule of k-ary CountVec sweeps (k = probeWidth; values < 1 mean
// DefaultProbeWidth).
//
// Each rank j maintains an integer candidate interval [lo, hi] with the
// invariant c(lo) < j ≤ c(hi+1), where c(t) = |{x : x < t}| over the active
// multiset; the answer is max{t : c(t) < j} — the j-th smallest element,
// exactly what the Fig. 1 binary search returns. Every sweep subdivides the
// unresolved intervals with up to k probe thresholds, ships them as one
// ascending ⊆-chain of strict-less predicates (riding CountVec's
// delta-gamma vector encoding), and — because every count is a global fact
// about the one shared multiset — updates every rank's interval against
// every probed threshold, not just its own. Multi-quantile therefore costs
// barely more sweeps than a single median: the ranks share one probe
// schedule.
//
// The first sweep additionally probes max+1, whose count is N — the
// COUNT(TRUE) of Fig. 1 line 1 folded into the probe plane — so ranks
// expressed as Median or Phi fractions resolve without a dedicated round.
//
// At width 1 the search is Fig. 1 (see fig1Probe) and is framed as Fig. 1
// frames it: every sweep is one COUNTP (Net.Count), the first COUNT(TRUE).
//
// The search state lives in a SelectStepper; this function is the
// single-query driver (one MinMax round, then one sweep per Propose).
// The engine's fusion scheduler drives many steppers through one merged
// schedule instead — same narrowing logic, shared sweeps, CountVec
// framing at every width.
func SelectRanksBatched(net Net, ranks []BatchRank, probeWidth int) (BatchResult, error) {
	return SelectRanksSeeded(net, ranks, probeWidth, nil)
}

// SelectRanksSeeded is SelectRanksBatched with delta-narrowing: seeds[i]
// biases rank i's probe schedule toward a window believed to contain the
// answer (typically last epoch's answer ± a drift margin; see SeedWindow).
// Answers are byte-identical to the unseeded search — a window only
// reorders which thresholds get probed first — so a stale seed costs
// sweeps, never correctness. nil (or length-mismatched) seeds reproduce
// SelectRanksBatched exactly.
func SelectRanksSeeded(net Net, ranks []BatchRank, probeWidth int, seeds []SeedWindow) (BatchResult, error) {
	var res BatchResult
	if len(ranks) == 0 {
		return res, nil
	}
	st := NewSelectStepper(ranks, probeWidth)
	st.SeedHints(seeds)
	lo, hi, ok := net.MinMax(Linear)
	if !ok {
		return res, ErrEmpty
	}
	st.Bounds(lo, hi)

	// A width-1 sweep's probe and count live on the stack. A wider search
	// gets one backing array for its probe thresholds and their counts (+1
	// slot for the sweep-1 top probe): the driver's whole state is a
	// handful of allocations.
	width := st.Width()
	var one [2]uint64
	probes, counts := one[:0:1], one[1:1]
	var buf []uint64
	var preds []wire.Pred
	if width > 1 {
		buf = make([]uint64, 2*(width+1))
		probes = buf[: 0 : width+1]
		preds = make([]wire.Pred, 0, width+1)
	}

	for !st.Done() {
		probes = st.Propose(probes[:0])
		probes = sortDedupe(probes)
		top, trueTop := !st.Resolved(), st.WantTrueTop()
		if width == 1 {
			pred := wire.True() // the top probe: a width-1 stepper proposes none with it
			if !top {
				pred = wire.Less(probes[0])
			}
			counts = append(counts[:0], net.Count(Linear, pred))
		} else {
			if top && !trueTop {
				probes = append(probes, hi+1)
			}
			preds = preds[:0]
			for _, t := range probes {
				preds = append(preds, wire.Less(t))
			}
			if trueTop {
				preds = append(preds, wire.True())
			}
			counts = net.CountVec(Linear, preds, buf[width+1:width+1])
		}
		res.Sweeps++
		res.Probes += len(counts)
		if top {
			n := counts[len(counts)-1]
			if n == 0 {
				return res, ErrEmpty
			}
			if err := st.ResolveN(n); err != nil {
				return res, err
			}
		}
		st.Observe(probes, counts[:len(probes)])
		if res.Sweeps > MaxSelectSweeps {
			return res, ErrNoConverge
		}
	}
	res.Values = st.Values(make([]uint64, 0, len(ranks)))
	res.SeededSweeps = st.SeededSweeps()
	res.SeedHit = st.SeedHit()
	return res, nil
}

// interval is one rank's candidate range [lo, hi], maintained under the
// invariant c(lo) < j ≤ c(hi+1).
type interval struct{ lo, hi uint64 }

// probeAt interpolates the i-th of q evenly spaced thresholds in
// (lo, lo+w]: lo + ⌈i·(w+1)/(q+1)⌉-ish via ⌊·⌋, computed in 128 bits so
// wide domains (w approaching 2⁶⁴) neither wrap nor collapse the probe
// spread. Requires 1 ≤ i ≤ q ≤ w.
func probeAt(lo, w, i, q uint64) uint64 {
	if w == ^uint64(0) {
		// w+1 is unrepresentable; the spacing ⌊w/(q+1)⌋+1 keeps the probes
		// distinct, ascending, and within (lo, lo+w] without overflow.
		return lo + i*(w/(q+1)+1)
	}
	phi, plo := bits.Mul64(i, w+1)
	t, _ := bits.Div64(phi, plo, q+1)
	return lo + t
}

// sortDedupe sorts the probe thresholds ascending and removes duplicates in
// place — overlapping intervals of nearby ranks propose the same thresholds,
// and the ⊆-chain encoding requires ascending order.
func sortDedupe(probes []uint64) []uint64 {
	slices.Sort(probes)
	return slices.Compact(probes)
}
