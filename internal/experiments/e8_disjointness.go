package experiments

import (
	"fmt"
	"slices"

	"sensoragg/internal/distinct"
	"sensoragg/internal/stats"
)

// Disjointness is experiment E8 — Theorem 5.1's reduction made concrete:
// Set Disjointness instances run through COUNT DISTINCT on a 2n-node line,
// measuring the bits crossing the middle edge. The exact protocol must
// decide perfectly and push Ω(n) bits across the cut; the sketch protocol
// crosses O(m log log n) bits but cannot separate the 1-element gap, so its
// accuracy collapses toward chance — which is exactly why cheap approximate
// protocols do not contradict the lower bound. An exact cut whose fitted
// exponent in n (over at least three sizes) falls below e8MinExponent, or a
// sketch cut that varies across n by more than a factor e8SketchSpread, is
// a FAIL note.
func Disjointness(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E8",
		Title:  "Set Disjointness reduction (Theorem 5.1): cut bits and decision accuracy",
		Header: []string{"protocol", "n", "cut bits (mean)", "accuracy"},
	}
	ns := sizes(cfg, []int{64, 256, 1024, 4096}, 256)
	numTrials := trials(cfg, 10, 3)

	var xs, cuts []float64
	for _, n := range ns {
		h := distinct.DisjointnessHarness{SetSize: n, SketchP: -1, Seed: cfg.Seed + uint64(n)}
		acc, cut, err := h.Accuracy(numTrials)
		if err != nil {
			return nil, fmt.Errorf("exact disjointness n=%d: %w", n, err)
		}
		if acc != 1 {
			t.AddNote("FAIL: exact protocol accuracy %.2f at n=%d", acc, n)
		}
		t.AddRow("exact", n, cut, fmt.Sprintf("%.2f", acc))
		xs = append(xs, float64(n))
		cuts = append(cuts, cut)
	}
	var sketchCuts []float64
	for _, n := range ns {
		h := distinct.DisjointnessHarness{SetSize: n, SketchP: 6, Seed: cfg.Seed + uint64(n)}
		acc, cut, err := h.Accuracy(numTrials)
		if err != nil {
			return nil, fmt.Errorf("sketch disjointness n=%d: %w", n, err)
		}
		t.AddRow("sketch(m=64)", n, cut, fmt.Sprintf("%.2f", acc))
		sketchCuts = append(sketchCuts, cut)
	}
	if len(xs) >= 3 {
		exp := stats.FitPowerLaw(xs, cuts)
		t.AddNote("Exact cut-bit power-law exponent in n ≈ %.2f (Theorem 5.1 forces ≥ 1).", exp)
		if exp < e8MinExponent {
			t.AddNote("FAIL: the exact cut's fitted exponent in n %.2f is below %.1f; Theorem 5.1 forces 1", exp, e8MinExponent)
		}
	}
	if lo, hi := slices.Min(sketchCuts), slices.Max(sketchCuts); hi > e8SketchSpread*lo {
		t.AddNote("FAIL: the sketch cut spans %.0f–%.0f bits across n, more than ×%.1f; it must stay flat in n", lo, hi, e8SketchSpread)
	}
	t.AddNote("Sketch decisions must trend toward chance on the one-element gap — an exact-with-significant-probability counter would need Ω(n) (§5 closing remark).")
	return t, nil
}

// E8's Theorem 5.1 gate. The exact cut must grow linearly in n: the
// theorem forces exponent 1, and full mode fits 0.99. The sketch cut is a
// fixed-size sketch whatever n is (448 bits at every full-mode size), so it
// may vary across n by at most a factor e8SketchSpread.
const (
	e8MinExponent  = 0.9
	e8SketchSpread = 1.1
)
