package core

import (
	"fmt"
	"math/bits"
	"slices"

	"sensoragg/internal/wire"
)

// DefaultProbeWidth is the default number of COUNT probes batched into one
// CountVec sweep by the k-ary selection search. Its probes are the first
// unfixed nodes of Fig. 1's search tree, breadth first (see fig1Walk): 8
// per sweep cover at least the three levels below the interval's first
// unfixed node, so the Fig. 1 binary search's ~log₂X sequential sweeps
// fall to ~log₈X or fewer, a ≥3x sweep reduction at the simulator's
// default domains. Width 1 is Fig. 1 itself: its midpoint path, less the
// probes whose count the search already knows, so it never sends a COUNT
// Fig. 1 would not.
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
// exactly what the Fig. 1 binary search returns. Every sweep probes up to k
// thresholds inside the unresolved intervals: the first nodes of Fig. 1's
// search tree, breadth first, whose count the interval does not already
// fix, in whole levels per rank. It ships them as one ascending ⊆-chain of
// strict-less predicates (riding CountVec's delta-gamma vector encoding)
// and — because every count is a global fact about the one shared multiset
// — updates every rank's interval against every probed threshold.
// Multi-quantile therefore costs barely more sweeps than a single median:
// the ranks share one probe schedule.
//
// The first sweep additionally probes max+1, whose count is N — the
// COUNT(TRUE) of Fig. 1 line 1 folded into the probe plane — so ranks
// expressed as Median or Phi fractions resolve without a dedicated round.
//
// At width 1 the search is Fig. 1 (see fig1Walk) and is framed as Fig. 1
// frames it: every sweep is one COUNTP (Net.Count), the first COUNT(TRUE).
//
// The search state lives in a SelectStepper and the sweeps run on a Plane
// of one: the same loop, framing and convergence guard the engine's fused,
// twin and retried batches run their many steppers through.
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
	if len(ranks) == 0 {
		return BatchResult{}, nil
	}
	st := NewSelectStepper(ranks, probeWidth)
	st.SeedHints(seeds)
	var p Plane
	err := p.Drive(net, []*SelectStepper{st})
	res := BatchResult{Sweeps: p.Sweeps, Probes: p.Probes}
	if err != nil {
		return res, err
	}
	res.Values = st.Values(make([]uint64, 0, len(ranks)))
	res.SeededSweeps, res.SeedHit = st.SeededSweeps(), st.SeedHit()
	return res, nil
}

// Plane is one shared probe schedule: Drive runs every selection search
// handed to it, and the Fact 2.1 totals an aggregate reads, through one
// MinMax round and then one sweep per round. A solo query is a plane of
// one, a fusion batch a plane of its members. The hook is optional; the
// results hold what Drive learned, also when a sweep panicked.
type Plane struct {
	// Sum rides the active items' SUM on the first sweep (CountVecSum).
	Sum bool
	// Reject takes stepper i's ResolveN error, and stepper i leaves the
	// plane. Without it Drive returns the error.
	Reject func(i int, err error)

	// The MinMax round's extrema, the first sweep's active count and SUM
	// (with Sum set), and the sweeps run and predicates they shipped.
	Lo, Hi, N, Total uint64
	Sweeps, Probes   int
}

// Drive runs the plane over net for steppers, a nil entry being a member
// with no search (an aggregate). Each round merges the open searches'
// proposals into one ascending deduplicated chain, adds the top probe
// x < hi+1 (TRUE when hi is 2⁶⁴−1) until N is known, and feeds every count
// to every open search: counts are global facts about the one multiset,
// so one search's probes narrow the others too. The framing is Fig. 1's:
// when every search has width 1, a one-predicate sweep is a COUNTP (the
// top probe COUNT(TRUE)); any other sweep is one CountVec. A round with an
// open search but no probe, or sweep MaxSelectSweeps+1, is ErrNoConverge.
func (p *Plane) Drive(net Net, steppers []*SelectStepper) error {
	lo, hi, ok := net.MinMax(Linear)
	if !ok {
		return ErrEmpty
	}
	p.Lo, p.Hi = lo, hi
	width, countp := 0, true
	for _, st := range steppers {
		if st != nil {
			st.Bounds(lo, hi)
			width += st.Width()
			countp = countp && st.Width() == 1
		}
	}
	countp = countp && width > 0

	// A lone width-1 search's chain and count live on the stack. Any other
	// plane gets one backing array for its chain and its counts (+1 slot
	// for the top probe) and one for its predicates.
	var one [2]uint64
	chain, counts := one[:0:1], one[1:1]
	var vec []uint64
	var preds []wire.Pred
	if width > 1 || p.Sum {
		buf := make([]uint64, 2*(width+1))
		chain, vec = buf[:0:width+1], buf[width+1:width+1]
		preds = make([]wire.Pred, 0, width+1)
	}
	known := false // N, from the first sweep's top probe
	open := func(st *SelectStepper) bool { return st != nil && (!known || st.Resolved() && !st.Done()) }
	for !known || slices.ContainsFunc(steppers, open) {
		chain = chain[:0]
		for _, st := range steppers {
			if open(st) {
				chain = st.Propose(chain)
			}
		}
		chain = sortDedupe(chain)
		trueTop := !known && hi == ^uint64(0)
		if !known && !trueTop {
			chain = append(chain, hi+1)
		}
		shipped := len(chain)
		if trueTop {
			shipped++
		}
		sum := p.Sum && !known
		switch {
		case shipped == 0:
			return ErrNoConverge
		case countp && shipped == 1 && !sum:
			pred := wire.True() // the top probe, Fig. 1's COUNT(TRUE)
			if known {
				pred = wire.Less(chain[0])
			}
			counts = append(counts[:0], net.Count(Linear, pred))
		default:
			preds = preds[:0]
			for _, t := range chain {
				preds = append(preds, wire.Less(t))
			}
			if trueTop {
				preds = append(preds, wire.True())
			}
			if sum {
				vec, p.Total = net.(interface {
					CountVecSum(Domain, []wire.Pred, []uint64) ([]uint64, uint64)
				}).CountVecSum(Linear, preds, vec)
			} else {
				vec = net.CountVec(Linear, preds, vec)
			}
			counts = vec
		}
		p.Sweeps++
		p.Probes += shipped
		if !known {
			known, p.N = true, counts[shipped-1]
			if p.N == 0 {
				return ErrEmpty
			}
			for i, st := range steppers {
				if st == nil {
					continue
				}
				if err := st.ResolveN(p.N); err != nil {
					if p.Reject == nil {
						return err
					}
					p.Reject(i, err)
				}
			}
		}
		for _, st := range steppers {
			if open(st) {
				st.Observe(chain, counts[:len(chain)])
			}
		}
		if p.Sweeps > MaxSelectSweeps {
			return ErrNoConverge
		}
	}
	return nil
}

// interval is one rank's candidate range [lo, hi], maintained under the
// invariant c(lo) < j ≤ c(hi+1).
type interval struct{ lo, hi uint64 }

// probeAt interpolates the i-th of q evenly spaced thresholds in
// (lo, lo+w] — the spread inside a seed window: lo + ⌈i·(w+1)/(q+1)⌉-ish
// via ⌊·⌋, computed in 128 bits so wide domains (w approaching 2⁶⁴)
// neither wrap nor collapse the probe spread. Requires 1 ≤ i ≤ q ≤ w.
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
