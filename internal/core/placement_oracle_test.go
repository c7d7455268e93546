package core

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/wire"
)

// The placement every width above 1 used before every width moved onto
// Fig. 1's search tree: evenly spaced thresholds over each interval, and
// Fig. 1's midpoint path at width 1. It is kept here verbatim as the
// placement oracle — the tree changes which thresholds a sweep probes,
// never which values the search selects.

// proposeEven appends the stepper's next probe thresholds to dst — up to Width
// of them, never including the top probe (the driver appends that while
// !Resolved()). Before N is known it proposes evenly spaced thresholds
// over (lo, hi] (none at width 1: that sweep is Fig. 1's COUNT(TRUE));
// afterwards it budgets the width across the unresolved ranks' intervals,
// leftovers to the earliest requested ranks — exactly the schedule
// SelectRanksBatched probes. An interval's share goes to its seed window
// first, else to evenly spaced thresholds, or at width 1 to the next
// probe on Fig. 1's path (fig1Probe). The driver must sort+dedupe the
// (possibly merged) proposals before shipping: overlapping intervals of
// nearby ranks propose duplicate thresholds, and the ⊆-chain encoding
// requires ascending order.
func (s *SelectStepper) proposeEven(dst []uint64) []uint64 {
	if !s.bounded {
		panic("core: SelectStepper.Propose before Bounds")
	}
	if !s.resolved {
		q := uint64(s.width - 1)
		if len(s.hints) > 0 {
			if seeded := s.proposeHinted(dst, interval{lo: s.lo, hi: s.hi}, s.hints, q); seeded != nil {
				s.seededSweeps++
				return seeded
			}
		}
		w := s.hi - s.lo
		if q > w {
			q = w
		}
		for i := uint64(1); i <= q; i++ {
			dst = append(dst, probeAt(s.lo, w, i, q))
		}
		return dst
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
	seededRound := false
	for vi, riv := range s.ivs {
		iv := riv.interval
		if iv.lo == iv.hi || riv.dup {
			continue
		}
		q := uint64(base)
		if seen < extra {
			q++
		}
		seen++
		if len(s.hints) > 0 {
			if seeded := s.proposeHinted(dst, iv, s.hints[vi:vi+1], q); seeded != nil {
				dst = seeded
				seededRound = true
				continue
			}
		}
		if s.width == 1 {
			if q > 0 {
				dst = append(dst, fig1Probe(s.lo, s.hi, iv))
			}
			continue
		}
		w := iv.hi - iv.lo
		if q > w {
			q = w
		}
		for i := uint64(1); i <= q; i++ {
			dst = append(dst, probeAt(iv.lo, w, i, q))
		}
	}
	if seededRound {
		s.seededSweeps++
	}
	return dst
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

// placementJob is one member of a fused batch: its ranks and seed windows.
type placementJob struct {
	ranks []BatchRank
	seeds []SeedWindow
}

// runPlacement drives one stepper per job through one merged schedule, as
// the engine's fused driver does (a single job is the solo search, framed
// as CountVec), placing probes with Propose or, when even is set, with the
// oracle's proposeEven. It returns each job's values and the sweep count.
func runPlacement(net Net, jobs []placementJob, width int, even bool) ([][]uint64, int, error) {
	lo, hi, ok := net.MinMax(Linear)
	if !ok {
		return nil, 0, ErrEmpty
	}
	sts := make([]*SelectStepper, len(jobs))
	for i, j := range jobs {
		sts[i] = NewSelectStepper(j.ranks, width)
		sts[i].SeedHints(j.seeds)
		sts[i].Bounds(lo, hi)
	}
	var probes []uint64
	var preds []wire.Pred
	for sweeps := 0; ; sweeps++ {
		probes = probes[:0]
		for _, st := range sts {
			if st.Done() {
				continue
			}
			if even {
				probes = st.proposeEven(probes)
			} else {
				probes = st.Propose(probes)
			}
		}
		top := !sts[0].Resolved()
		if !top && !slices.ContainsFunc(sts, func(st *SelectStepper) bool { return !st.Done() }) {
			vals := make([][]uint64, len(sts))
			for i, st := range sts {
				vals[i] = st.Values(nil)
			}
			return vals, sweeps, nil
		}
		if sweeps >= MaxSelectSweeps || len(probes) == 0 && !top {
			return nil, sweeps, ErrNoConverge
		}
		probes = sortDedupe(probes)
		preds = preds[:0]
		for _, t := range probes {
			preds = append(preds, wire.Less(t))
		}
		if top && hi == math.MaxUint64 {
			preds = append(preds, wire.True())
		} else if top {
			preds = append(preds, wire.Less(hi+1))
		}
		counts := net.CountVec(Linear, preds, nil)
		for _, st := range sts {
			if top {
				if err := st.ResolveN(counts[len(counts)-1]); err != nil {
					return nil, sweeps, err
				}
			}
			st.Observe(probes, counts[:len(probes)])
		}
	}
}

// placementCase generates one multiset: constant, narrow, skewed, few
// distinct, or spread over the whole 64-bit range (so the top probe is
// TRUE and spans reach 2⁶⁴−1).
func placementCase(rng *rand.Rand) []uint64 {
	n := 1 + rng.IntN(300)
	vals := make([]uint64, n)
	maxX := uint64(4 * n)
	kind := rng.IntN(6)
	for i := range vals {
		switch kind {
		case 0: // constant: M == m
			vals[i] = maxX / 3
		case 1: // uniform over a small domain
			vals[i] = rng.Uint64N(maxX + 1)
		case 2: // skewed toward 0
			u := rng.Float64()
			vals[i] = uint64(float64(maxX) * u * u * u * u)
		case 3: // few distinct values
			vals[i] = uint64(rng.IntN(3)) * (maxX / 2)
		case 4: // the whole 64-bit range
			vals[i] = rng.Uint64()
		default: // clustered near 2⁶⁴−1
			vals[i] = math.MaxUint64 - rng.Uint64N(maxX)
		}
	}
	if kind == 4 && n > 1 {
		vals[0], vals[1] = 0, math.MaxUint64
	}
	return vals
}

// placementJobs generates a batch of one to three jobs with one to four
// ranks each (repeats included), and seed windows that hold the answer,
// miss it, or are absent.
func placementJobs(rng *rand.Rand, sorted []uint64, seeded bool) []placementJob {
	n := uint64(len(sorted))
	jobs := make([]placementJob, 1+rng.IntN(3))
	for ji := range jobs {
		ranks := make([]BatchRank, 1+rng.IntN(4))
		for i := range ranks {
			switch rng.IntN(4) {
			case 0:
				ranks[i] = BatchRank{Median: true}
			case 1:
				ranks[i] = BatchRank{Phi: 1 - rng.Float64()}
			case 2:
				ranks[i] = BatchRank{K: 1 + rng.Uint64N(n)}
			default: // a repeat, or the maximum
				ranks[i] = BatchRank{K: n}
				if i > 0 {
					ranks[i] = ranks[rng.IntN(i)]
				}
			}
		}
		jobs[ji].ranks = ranks
		if !seeded {
			continue
		}
		seeds := make([]SeedWindow, len(ranks))
		for i, r := range ranks {
			j, _ := r.resolve(n)
			v := sorted[j-1]
			switch rng.IntN(4) {
			case 0: // holds the answer
				d := rng.Uint64N(64)
				seeds[i] = SeedWindow{Lo: v - min(v, d), Hi: v + min(math.MaxUint64-v, d)}
			case 1: // stale: anywhere in the range
				a, b := sorted[rng.IntN(len(sorted))], sorted[rng.IntN(len(sorted))]
				seeds[i] = SeedWindow{Lo: min(a, b), Hi: max(a, b)}
			case 2: // a single value
				seeds[i] = SeedWindow{Lo: v, Hi: v}
			default: // no hint for this rank
				seeds[i] = SeedWindow{Lo: 1, Hi: 0}
			}
		}
		jobs[ji].seeds = seeds
	}
	return jobs
}

// TestTreePlacementMatchesEvenOracle holds Fig. 1's tree placement to the
// even-spacing oracle over generated multisets: identical values at every
// width, rank set, seed window and fused batch, every value the sorted
// truth, and at width 1 — where both are Fig. 1 — an identical sweep
// count. A lone job also runs through SelectRanksSeeded, the solo driver.
func TestTreePlacementMatchesEvenOracle(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 600
	}
	rng := rand.New(rand.NewPCG(45, 1))
	widths := []int{1, 2, 3, 4, 8, 16, 64}
	var treeSweeps, evenSweeps int
	for c := 0; c < cases; c++ {
		vals := placementCase(rng)
		sorted := SortedCopy(vals)
		jobs := placementJobs(rng, sorted, rng.IntN(2) == 0)
		width := widths[rng.IntN(len(widths))]
		tree, ts, err := runPlacement(NewLocalNet(vals, math.MaxUint64), jobs, width, false)
		if err != nil {
			t.Fatalf("case %d (width %d, jobs %+v): tree placement: %v", c, width, jobs, err)
		}
		even, es, err := runPlacement(NewLocalNet(vals, math.MaxUint64), jobs, width, true)
		if err != nil {
			t.Fatalf("case %d: even oracle: %v", c, err)
		}
		treeSweeps, evenSweeps = treeSweeps+ts, evenSweeps+es
		if width == 1 && ts != es {
			t.Fatalf("case %d: width 1 took %d sweeps, Fig. 1 %d", c, ts, es)
		}
		for ji, job := range jobs {
			if !slices.Equal(tree[ji], even[ji]) {
				t.Fatalf("case %d (width %d): job %d ranks %+v seeds %+v: tree %v, even %v",
					c, width, ji, job.ranks, job.seeds, tree[ji], even[ji])
			}
			for i, r := range job.ranks {
				j, _ := r.resolve(uint64(len(sorted)))
				if tree[ji][i] != sorted[j-1] {
					t.Fatalf("case %d: rank %+v answered %d, truth %d", c, r, tree[ji][i], sorted[j-1])
				}
			}
		}
		if len(jobs) == 1 {
			res, err := SelectRanksSeeded(NewLocalNet(vals, math.MaxUint64), jobs[0].ranks, width, jobs[0].seeds)
			if err != nil || !slices.Equal(res.Values, tree[0]) || res.Sweeps != ts {
				t.Fatalf("case %d: solo driver %v in %d sweeps (%v), stepper %v in %d", c, res.Values, res.Sweeps, err, tree[0], ts)
			}
		}
	}
	t.Logf("%d cases: %d sweeps on the tree, %d evenly spaced", cases, treeSweeps, evenSweeps)
}

// FuzzFig1Walk checks the walk over any bounds and interval, on Fig. 1's
// centred tree and on the one wider sweeps hang below m: every threshold
// lies in (iv.lo, iv.hi], none repeats, at most q come back, at least one
// when the interval is open and q ≥ 1, all of (iv.lo, iv.hi] when q covers
// it, and on the centred tree q = 1 is Fig. 1's next probe.
func FuzzFig1Walk(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint16(1), true)
	f.Add(uint64(7), uint64(7), uint64(7), uint64(7), uint16(8), true)
	f.Add(uint64(0), uint64(math.MaxUint64), uint64(0), uint64(math.MaxUint64), uint16(8), true)
	f.Add(uint64(1), uint64(math.MaxUint64), uint64(5), uint64(1<<63), uint16(1), true)
	f.Add(uint64(math.MaxUint64-1), uint64(math.MaxUint64), uint64(0), uint64(1), uint16(1), true)
	f.Add(uint64(100), uint64(356), uint64(255), uint64(256), uint16(1), true) // M − m = 2^8: the leaf M
	f.Add(uint64(3), uint64(1000), uint64(10), uint64(900), uint16(1024), true)
	f.Add(uint64(3), uint64(1000), uint64(10), uint64(40), uint16(64), false)
	f.Add(uint64(100), uint64(356), uint64(255), uint64(356), uint16(2), false)
	f.Fuzz(func(t *testing.T, m, M, a, b uint64, q16 uint16, centred bool) {
		if m > M {
			m, M = M, m
		}
		// Fold a and b into [m, M].
		if span := M - m; span != math.MaxUint64 {
			a, b = m+a%(span+1), m+b%(span+1)
		}
		iv := interval{lo: min(a, b), hi: max(a, b)}
		q := uint64(q16 % (MaxProbeWidth + 1))
		got := fig1Walk(nil, m, M, iv, q, centred)
		if uint64(len(got)) > q {
			t.Fatalf("walk [%d, %d] iv %+v q %d: %d thresholds", m, M, iv, q, len(got))
		}
		for i, th := range got {
			if th <= iv.lo || th > iv.hi {
				t.Fatalf("walk [%d, %d] iv %+v q %d: threshold %d outside the interval", m, M, iv, q, th)
			}
			if slices.Contains(got[:i], th) {
				t.Fatalf("walk [%d, %d] iv %+v q %d: threshold %d twice", m, M, iv, q, th)
			}
		}
		if iv.lo == iv.hi || q == 0 {
			return
		}
		if len(got) == 0 {
			t.Fatalf("walk [%d, %d] iv %+v q %d: no threshold for an open interval", m, M, iv, q)
		}
		if q >= iv.hi-iv.lo && uint64(len(got)) != iv.hi-iv.lo {
			t.Fatalf("walk [%d, %d] iv %+v q %d: %d thresholds, the interval holds %d", m, M, iv, q, len(got), iv.hi-iv.lo)
		}
		if want := fig1Probe(m, M, iv); centred && q == 1 && got[0] != want {
			t.Fatalf("walk [%d, %d] iv %+v: q = 1 gives %d, Fig. 1 probes %d", m, M, iv, got[0], want)
		}
	})
}
