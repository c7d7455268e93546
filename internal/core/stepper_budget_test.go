package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/wire"
)

// TestSpendBuysWholeLevels pins the per-rank budget rule: whole levels of
// Fig. 1's tree, the remainder banked for the next sweep, the whole share
// at once for an interval at the minimum or when no sweep could afford
// one more level, and never more than the sweep has left.
func TestSpendBuysWholeLevels(t *testing.T) {
	var r rankInterval
	var got []uint64
	for range 6 {
		got = append(got, r.spend(2, 8, 8, false))
	}
	if want := []uint64{1, 3, 1, 3, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("share 2 at width 8 spends %v, want %v", got, want)
	}
	cases := []struct {
		name                 string
		carry, q, left, wide uint64
		all                  bool
		want, carried        uint64
	}{
		{"a lone rank at width 8 spends its eighth node", 0, 8, 8, 8, false, 8, 0},
		{"width 16 buys four levels and its sixteenth node", 0, 16, 16, 16, false, 16, 0},
		{"share 4 buys two levels and banks one", 0, 4, 8, 8, false, 3, 1},
		{"an interval at the minimum spends its share", 0, 2, 8, 8, true, 2, 0},
		{"the sweep's remainder caps the spend", 3, 4, 2, 8, false, 1, 6},
		{"the bank never outgrows the width", 8, 4, 0, 8, false, 0, 8},
		{"width 1 is one probe", 0, 1, 1, 1, false, 1, 0},
	}
	for _, c := range cases {
		r := rankInterval{carry: uint16(c.carry)}
		if n := r.spend(c.q, c.left, c.wide, c.all); n != c.want || uint64(r.carry) != c.carried {
			t.Errorf("%s: spent %d banking %d, want %d banking %d", c.name, n, r.carry, c.want, c.carried)
		}
	}
}

// TestProposeStaysWithinWidth drives solo searches over generated
// multisets and rank sets and checks that no sweep's proposals exceed the
// width, banking included, and that every answer is the sorted truth.
func TestProposeStaysWithinWidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	for c := range 400 {
		vals := placementCase(rng)
		sorted := SortedCopy(vals)
		job := placementJobs(rng, sorted, rng.IntN(3) == 0)[0]
		width := []int{1, 2, 3, 4, 8, 16}[rng.IntN(6)]
		net := NewLocalNet(vals, math.MaxUint64)
		lo, hi, _ := net.MinMax(Linear)
		st := NewSelectStepper(job.ranks, width)
		st.SeedHints(job.seeds)
		st.Bounds(lo, hi)
		var probes []uint64
		for sweeps := 0; !st.Done(); sweeps++ {
			if sweeps > MaxSelectSweeps {
				t.Fatalf("case %d (width %d, ranks %+v): no convergence", c, width, job.ranks)
			}
			probes = st.Propose(probes[:0])
			if len(probes) > width {
				t.Fatalf("case %d (width %d, ranks %+v): sweep %d proposed %d thresholds", c, width, job.ranks, sweeps, len(probes))
			}
			probes = sortDedupe(probes)
			preds := make([]wire.Pred, 0, len(probes)+1)
			for _, th := range probes {
				preds = append(preds, wire.Less(th))
			}
			top := !st.Resolved()
			if top {
				preds = append(preds, wire.True())
			}
			counts := net.CountVec(Linear, preds, nil)
			if top {
				if err := st.ResolveN(counts[len(counts)-1]); err != nil {
					t.Fatalf("case %d: %v", c, err)
				}
			}
			st.Observe(probes, counts[:len(probes)])
		}
		for i, v := range st.Values(nil) {
			j, _ := job.ranks[i].resolve(uint64(len(sorted)))
			if v != sorted[j-1] {
				t.Fatalf("case %d (width %d): rank %+v answered %d, truth %d", c, width, job.ranks[i], v, sorted[j-1])
			}
		}
	}
}

// TestWideWalkIgnoresMax holds the hung tree to its point: inside one
// power of two, the maximum does not move a single threshold, so a
// deployment's schedule does not hang on its largest reading. Fig. 1's
// centred tree does move.
func TestWideWalkIgnoresMax(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	moved := 0
	for c := range 2000 {
		S := 3 + rng.Uint64N(40)
		m := rng.Uint64N(1 << 20)
		// Two maxima with the same ⌈log(M−m)⌉ and room below (e ≥ 2).
		lo, hi := m+1<<(S-1)+1, m+1<<S-2
		M1, M2 := lo+rng.Uint64N(hi-lo+1), lo+rng.Uint64N(hi-lo+1)
		a, b := m+rng.Uint64N(min(M1, M2)-m+1), m+rng.Uint64N(min(M1, M2)-m+1)
		iv := interval{lo: min(a, b), hi: max(a, b)}
		q := 1 + rng.Uint64N(16)
		w1, w2 := fig1Walk(nil, m, M1, iv, q, false), fig1Walk(nil, m, M2, iv, q, false)
		if !slices.Equal(w1, w2) {
			t.Fatalf("case %d: m %d, iv %+v, q %d: M %d walks %v, M %d walks %v", c, m, iv, q, M1, w1, M2, w2)
		}
		if !slices.Equal(fig1Walk(nil, m, M1, iv, q, true), fig1Walk(nil, m, M2, iv, q, true)) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the centred tree never moved with M: the case generator is too tame")
	}
}
