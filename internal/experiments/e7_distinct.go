package experiments

import (
	"fmt"
	"math"

	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/stats"
	"sensoragg/internal/workload"
)

// CountDistinct is experiment E7 — Section 5: exact COUNT DISTINCT costs
// Θ(distinct · log X) per node near the root (linear in the worst case),
// while the sketch protocol costs O(m · log log n) with relative error
// ≈ 1.04/√m (the section's "(1 ± 3.15/k) with k² log log n bits" remark,
// modulo estimator constants). Over at least three sizes, an exact cost
// whose fitted exponent in N falls below e7MinExactExponent, or a sketch
// cost whose exponent exceeds e7MaxSketchExponent, is a FAIL note.
func CountDistinct(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E7",
		Title:  "COUNT DISTINCT (§5): exact vs approximate cost and error",
		Header: []string{"N", "distinct", "exact b/node", "sketch m", "sketch b/node", "rel err", "σ bound"},
	}
	ns := sizes(cfg, []int{512, 2048, 8192, 32768}, 1024)
	var xs, exactBits, sketchBits []float64

	for _, n := range ns {
		maxX := uint64(8 * n)
		g := buildGraph(topoGrid, n, cfg.Seed)
		values := workload.Generate(workload.Uniform, g.N(), maxX, cfg.Seed+uint64(n))
		truth := float64(core.TrueDistinct(values))

		nwExact := netsim.New(g, values, maxX, netsim.WithSeed(cfg.Seed))
		exRes, err := distinct.Exact(spantree.NewFast(nwExact))
		if err != nil {
			return nil, fmt.Errorf("exact distinct N=%d: %w", n, err)
		}
		if float64(exRes.Distinct) != truth {
			t.AddNote("FAIL: exact distinct N=%d returned %d, want %.0f", n, exRes.Distinct, truth)
		}

		const p = 6 // m = 64 registers
		nwApx := netsim.New(g, values, maxX, netsim.WithSeed(cfg.Seed))
		apRes, err := distinct.Approximate(spantree.NewFast(nwApx), p, loglog.EstHLL, cfg.Seed+uint64(n))
		if err != nil {
			return nil, fmt.Errorf("approximate distinct N=%d: %w", n, err)
		}
		relErr := math.Abs(apRes.Estimate-truth) / truth

		t.AddRow(g.N(), exRes.Distinct, exRes.Comm.MaxPerNode, 1<<p, apRes.Comm.MaxPerNode,
			relErr, apRes.Sigma)
		xs = append(xs, float64(g.N()))
		exactBits = append(exactBits, float64(exRes.Comm.MaxPerNode))
		sketchBits = append(sketchBits, float64(apRes.Comm.MaxPerNode))
	}
	if len(xs) >= 3 {
		exact, sketch := stats.FitPowerLaw(xs, exactBits), stats.FitPowerLaw(xs, sketchBits)
		t.AddNote("Exact cost power-law exponent in N ≈ %.2f (linear predicted: ≈ 1); sketch exponent ≈ %.2f (flat predicted: ≈ 0).",
			exact, sketch)
		if exact < e7MinExactExponent {
			t.AddNote("FAIL: the exact cost's fitted exponent in N %.2f is below %.1f; §5 prices exact COUNT DISTINCT linear in the distinct count", exact, e7MinExactExponent)
		}
		if sketch > e7MaxSketchExponent {
			t.AddNote("FAIL: the sketch cost's fitted exponent in N %.2f is above %.1f; the sketch costs O(m · log log n), flat in N", sketch, e7MaxSketchExponent)
		}
	}
	return t, nil
}

// E7's §5 gate: full mode fits the exact cost's exponent in N at 0.99 and
// the sketch's at 0.00.
const (
	e7MinExactExponent  = 0.9
	e7MaxSketchExponent = 0.1
)
