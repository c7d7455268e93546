package core

import (
	"errors"
	"math/bits"
	"slices"
)

// SelectStepper is the k-ary selection search of SelectRanksBatched with
// its narrowing loop inverted into explicit propose-thresholds /
// consume-counts steps, so one driver, Plane.Drive, can run several
// heterogeneous searches — a median, five quantiles, an order statistic —
// through one shared probe schedule (the engine's shared-sweep query
// fusion). One stepper is one query's search state; the plane owns the
// communication:
//
//	st.Bounds(lo, hi)                     // the plane's MinMax round
//	for open searches remain {
//	    chain = st.Propose(chain)         // every open search's proposals, merged
//	    counts := ...                     // one sweep over the chain (+ the top probe)
//	    if !st.Resolved() { st.ResolveN(n) } // n = the top probe's count
//	    st.Observe(chain, counts)
//	}
//	values := st.Values(nil)
//
// Because every count is a global fact about the one shared multiset,
// Observe may be fed any superset of the stepper's own proposals: probes
// contributed by other members of a fused batch narrow this stepper's
// intervals too (probes outside an interval are no-ops by monotonicity of
// the counting function). A plane of one stepper probes exactly its own
// proposals — SelectRanksBatched. Every width places its probes on Fig.
// 1's search tree (fig1Walk), and width 1 is the paper's Fig. 1 search
// itself, so the exact selection has one implementation at every width
// and on every path.
type SelectStepper struct {
	width int
	ranks []BatchRank

	lo, hi   uint64
	bounded  bool
	resolved bool

	// ivs holds one candidate interval per requested rank, in input order,
	// from ResolveN on.
	ivs []rankInterval

	// hints are the delta-narrowing seed windows, aligned with ranks.
	hints        []SeedWindow
	seededSweeps int
}

// rankInterval is one requested rank's search state: its rank j resolved
// against N and its candidate interval. A rank equal to an earlier one is
// a dup: its interval narrows exactly as the earlier one's, which proposes
// for both, biased by the earlier rank's hint.
type rankInterval struct {
	interval
	j      uint64
	dup    bool
	walked bool   // walks Fig. 1's tree in the sweep being proposed
	carry  uint16 // share banked for a later sweep (see spend); ≤ MaxProbeWidth
}

// SeedWindow is a delta-narrowing hint: the caller's belief about where a
// rank's answer lies — typically last epoch's answer ± a drift margin.
// Hints bias the probe schedule toward the window (its boundaries are
// probed first, so one sweep either collapses the search into the window
// or disproves it); they never constrain the candidate interval, so a
// stale hint costs sweeps, not correctness. Hi < Lo means "no hint for
// this rank".
type SeedWindow struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// valid reports whether the window actually hints (Hi < Lo is the no-hint
// sentinel).
func (w SeedWindow) valid() bool { return w.Lo <= w.Hi }

// Contains reports whether v lies inside the window.
func (w SeedWindow) Contains(v uint64) bool { return w.valid() && w.Lo <= v && v <= w.Hi }

// NewSelectStepper builds the search state for the requested ranks.
// probeWidth < 1 means DefaultProbeWidth; widths above MaxProbeWidth clamp
// (the same rule every entry point shares).
func NewSelectStepper(ranks []BatchRank, probeWidth int) *SelectStepper {
	if probeWidth < 1 {
		probeWidth = DefaultProbeWidth
	}
	if probeWidth > MaxProbeWidth {
		probeWidth = MaxProbeWidth
	}
	return &SelectStepper{width: probeWidth, ranks: ranks}
}

// Width returns the stepper's probe budget per sweep.
func (s *SelectStepper) Width() int { return s.width }

// NumRanks returns the number of requested order statistics.
func (s *SelectStepper) NumRanks() int { return len(s.ranks) }

// SeedHints attaches delta-narrowing windows, one per requested rank in
// input order (wins[i] seeds ranks[i]); a slice whose length does not
// match the rank count is ignored. Must be called before the first
// Propose. See SeedWindow for the semantics.
func (s *SelectStepper) SeedHints(wins []SeedWindow) {
	if len(wins) != len(s.ranks) {
		return
	}
	s.hints = wins
}

// SeededSweeps reports how many Propose rounds were biased by an active
// seed hint — the sweeps during which the search was betting on (or
// testing) the windows rather than narrowing from scratch.
func (s *SelectStepper) SeededSweeps() int { return s.seededSweeps }

// SeedHit reports whether at least one valid hint was attached and every
// hinted rank's answer landed inside its window. Valid once Done.
func (s *SelectStepper) SeedHit() bool {
	if len(s.hints) == 0 || !s.Done() {
		return false
	}
	hinted := false
	for i, iv := range s.ivs {
		w := s.hints[i]
		if !w.valid() {
			continue
		}
		hinted = true
		if !w.Contains(iv.lo) {
			return false
		}
	}
	return hinted
}

// Bounds seeds the candidate value interval from the shared MinMax round.
// It must be called once, before the first Propose.
func (s *SelectStepper) Bounds(lo, hi uint64) {
	s.lo, s.hi = lo, hi
	s.bounded = true
}

// Resolved reports whether the requested ranks have been resolved against
// the active count N. Until then, every sweep must include the all-active
// top probe (threshold hi+1, or TRUE when hi is 2⁶⁴−1) whose count the
// driver feeds back through ResolveN.
func (s *SelectStepper) Resolved() bool { return s.resolved }

// ResolveN resolves the requested ranks against the protocol-counted
// active total N: one candidate interval per requested rank, a rank equal
// to an earlier one marked dup. An unresolvable rank (zero, out of range)
// is the query's error, reported here exactly as SelectRanksBatched
// reports it.
func (s *SelectStepper) ResolveN(n uint64) error {
	if n == 0 {
		return ErrEmpty
	}
	s.ivs = make([]rankInterval, len(s.ranks))
	for i, r := range s.ranks {
		j, err := r.resolve(n)
		if err != nil {
			return err
		}
		s.ivs[i] = rankInterval{interval: interval{lo: s.lo, hi: s.hi}, j: j}
		for _, prev := range s.ivs[:i] {
			s.ivs[i].dup = s.ivs[i].dup || prev.j == j
		}
	}
	s.resolved = true
	return nil
}

// Done reports that every rank's interval has collapsed to a single value.
func (s *SelectStepper) Done() bool {
	if !s.resolved {
		return false
	}
	for _, iv := range s.ivs {
		if iv.lo != iv.hi {
			return false
		}
	}
	return true
}

// Propose appends the stepper's next probe thresholds to dst — up to Width
// of them, never including the top probe (the driver appends that while
// !Resolved()). Before N is known it proposes the first Width−1 nodes of
// Fig. 1's search tree over [lo, hi] (none at width 1: that sweep is
// Fig. 1's COUNT(TRUE)); afterwards it budgets the width across the
// unresolved ranks' intervals, leftovers to the earliest requested ranks —
// exactly the schedule SelectRanksBatched probes. A rank's share goes to
// its seed window first, else to Fig. 1's tree, breadth first, centred
// only at width 1 (fig1Walk), in whole levels (see spend) — unless an
// earlier rank walks the same interval this sweep. The plane sorts and
// dedupes the merged proposals before shipping: overlapping intervals of
// nearby ranks propose duplicate thresholds, and the ⊆-chain encoding
// requires ascending order.
func (s *SelectStepper) Propose(dst []uint64) []uint64 {
	if !s.bounded {
		panic("core: SelectStepper.Propose before Bounds")
	}
	centred := s.width == 1
	if !s.resolved {
		q, iv := uint64(s.width-1), interval{lo: s.lo, hi: s.hi}
		if len(s.hints) > 0 {
			if seeded := s.proposeHinted(dst, iv, s.hints, q); seeded != nil {
				s.seededSweeps++
				return seeded
			}
		}
		return fig1Walk(dst, s.lo, s.hi, iv, q, centred)
	}
	unresolved := 0
	for _, iv := range s.ivs {
		if iv.lo != iv.hi && !iv.dup {
			unresolved++
		}
	}
	if unresolved == 0 {
		return dst
	}
	base := s.width / unresolved
	extra := s.width % unresolved
	seen := 0
	left := uint64(s.width) // of this sweep's budget, after the earlier ranks
	seededRound := false
	for vi := range s.ivs {
		riv := &s.ivs[vi]
		riv.walked = false
		if riv.lo == riv.hi || riv.dup {
			continue
		}
		q := uint64(base)
		if seen < extra {
			q++
		}
		seen++
		if len(s.hints) > 0 {
			if seeded := s.proposeHinted(dst, riv.interval, s.hints[vi:vi+1], min(q, left)); seeded != nil {
				left -= uint64(len(seeded) - len(dst))
				dst = seeded
				seededRound = true
				continue
			}
		}
		if slices.ContainsFunc(s.ivs[:vi], func(p rankInterval) bool { return p.walked && p.interval == riv.interval }) {
			continue
		}
		riv.walked = true
		n := riv.spend(q, left, uint64(s.width), riv.lo == s.lo)
		left -= n
		dst = fig1Walk(dst, s.lo, s.hi, riv.interval, n, centred)
	}
	if seededRound {
		s.seededSweeps++
	}
	return dst
}

// spend returns how many of Fig. 1's nodes a rank proposes this sweep:
// whole levels of its share q plus what it banked, at most left of them,
// banking the rest (a share of 2 walks 1, 3, 1, 3 … nodes, 1.5 levels a
// sweep on any data). An interval still starting at the minimum (all), or
// a rank that no sweep could lift one more level, spends everything: its
// odd nodes go to the next level's leftmost, toward m.
func (r *rankInterval) spend(q, left, width uint64, all bool) uint64 {
	banked := q + uint64(r.carry)
	n := min(banked, left)
	L := bits.Len64(n+1) - 1 // whole levels n affords
	if !all && 1<<(L+1)-1 <= width {
		n = 1<<L - 1
	}
	r.carry = uint16(min(banked-n, width))
	return n
}

// proposeHinted appends hint-biased probe thresholds for the candidate
// interval iv: each window's boundaries first (so this sweep either
// confirms the answer lies inside — collapsing the interval into the
// window — or pushes the interval past it), then the remaining budget
// spread inside the windows. Returns nil when no window can still narrow
// iv (hint exhausted, disproven, or the interval is already inside it) —
// the caller then falls back to Fig. 1's tree, which restores the unseeded
// narrowing guarantee.
func (s *SelectStepper) proposeHinted(dst []uint64, iv interval, wins []SeedWindow, budget uint64) []uint64 {
	narrowing := 0
	for _, w := range wins {
		if s.hintNarrows(iv, w) {
			narrowing++
		}
	}
	if narrowing == 0 || budget == 0 {
		return nil
	}
	base := budget / uint64(narrowing)
	extra := budget % uint64(narrowing)
	seen := uint64(0)
	proposed := false
	for _, w := range wins {
		if !s.hintNarrows(iv, w) {
			continue
		}
		q := base
		if seen < extra {
			q++
		}
		seen++
		if q == 0 {
			continue
		}
		effLo := max(w.Lo, iv.lo)
		effHi := min(w.Hi, iv.hi)
		if effLo > iv.lo {
			dst = append(dst, effLo)
			proposed = true
			q--
		}
		if q > 0 && effHi < iv.hi {
			dst = append(dst, effHi+1)
			proposed = true
			q--
		}
		width := effHi - effLo
		if q > width {
			q = width
		}
		for i := uint64(1); i <= q; i++ {
			dst = append(dst, probeAt(effLo, width, i, q))
			proposed = true
		}
	}
	if !proposed {
		return nil
	}
	return dst
}

// hintNarrows reports whether window w still intersects iv AND can
// contribute a probe strictly inside (iv.lo, iv.hi] — i.e. the hint has
// neither been disproven nor fully absorbed the interval.
func (s *SelectStepper) hintNarrows(iv interval, w SeedWindow) bool {
	if !w.valid() {
		return false
	}
	effLo := max(w.Lo, iv.lo)
	effHi := min(w.Hi, iv.hi)
	if effLo > effHi {
		return false
	}
	// Either boundary strictly inside the interval is a narrowing probe;
	// so is any inner threshold when the clamped window is wider than one
	// value.
	return effLo > iv.lo || effHi < iv.hi || effHi-effLo > 0
}

// Observe folds one sweep's (threshold, count) pairs into every rank's
// interval: c(t) < j pushes that rank's floor up to t, c(t) ≥ j caps its
// ceiling at t−1. Thresholds must be ascending; counts[i] is the number of
// active items strictly below thresholds[i]. Probes outside an interval
// are no-ops, so feeding the full merged chain of a fused batch is always
// sound. Requires ResolveN first.
func (s *SelectStepper) Observe(thresholds, counts []uint64) {
	if !s.resolved {
		panic("core: SelectStepper.Observe before ResolveN")
	}
	for pi, t := range thresholds {
		c := counts[pi]
		for vi := range s.ivs {
			iv := &s.ivs[vi]
			if c < iv.j {
				if t > iv.lo && t <= iv.hi {
					iv.lo = t
				}
			} else if t > iv.lo && t <= iv.hi {
				iv.hi = t - 1
			}
		}
	}
}

// Values appends the selected order statistics, one per requested rank in
// input order. Valid once Done.
func (s *SelectStepper) Values(dst []uint64) []uint64 {
	if !s.Done() {
		panic("core: SelectStepper.Values before Done")
	}
	for _, iv := range s.ivs {
		dst = append(dst, iv.lo)
	}
	return dst
}

// Checkpoint appends one SeedWindow per requested rank (input order)
// capturing the rank's current candidate interval — the search's last
// consistent count state. A mid-flight fault invalidates the absolute
// counts the intervals were narrowed with (the surviving population is
// smaller), so a resumed search cannot reuse them as hard bounds; as seed
// *hints* on a fresh stepper they bias the re-healed schedule back to
// where the answer almost certainly still is, costing ~1 extra sweep
// instead of a from-scratch plane, and never costing correctness (see
// SeedWindow). Returns dst unchanged before ResolveN — there is no state
// worth checkpointing yet.
func (s *SelectStepper) Checkpoint(dst []SeedWindow) []SeedWindow {
	if !s.resolved {
		return dst
	}
	for _, iv := range s.ivs {
		dst = append(dst, SeedWindow{Lo: iv.lo, Hi: iv.hi})
	}
	return dst
}

// ErrNoConverge guards the plane's narrowing loop: a miscounting network
// (which exact counting over a reliable or healed tree rules out), or a
// round whose open searches propose nothing, must not spin forever.
var ErrNoConverge = errors.New("core: batched selection failed to converge")

// MaxSelectSweeps is the sweep bound of Plane.Drive, the one selection
// loop: solo, fused, twin and retried searches alike.
const MaxSelectSweeps = 4096
