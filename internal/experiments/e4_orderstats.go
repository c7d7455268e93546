package experiments

import (
	"fmt"

	"sensoragg/internal/core"
	"sensoragg/internal/stats"
	"sensoragg/internal/workload"
)

// OrderStatistics is experiment E4 — Section 3.4: the Fig. 1 search answers
// any k-order statistic within the same complexity. The sweep probes
// extreme and interior ranks on a skewed workload; every answer must be
// exact. Extreme ranks cost less: the width-1 search skips the probes whose
// count the ranks already fixed, and those cluster near the minimum and
// maximum.
func OrderStatistics(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E4",
		Title:  "k-order statistics, Fig. 1 at probe width 1 (§3.4): exactness and cost across ranks",
		Header: []string{"k/N", "k", "value", "b/node", "sweeps", "exact"},
	}
	n := 4096
	if cfg.Quick {
		n = 512
	}
	maxX := uint64(4 * n)
	net := simNet(topoRGG, n, workload.Zipf, maxX, cfg.Seed)
	nw := net.Network()
	sorted := core.SortedCopy(nw.AllItems())
	realN := nw.N()

	var costs []float64
	for _, frac := range []float64{0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0} {
		k := int(frac * float64(realN))
		if k < 1 {
			k = 1
		}
		before := nw.Meter.Snapshot()
		res, err := core.OrderStatistic(net, uint64(k))
		if err != nil {
			return nil, fmt.Errorf("order statistic k=%d: %w", k, err)
		}
		d := nw.Meter.Since(before)
		v := res.Values[0]
		exact := v == core.TrueOrderStatistic(sorted, k)
		if !exact {
			t.AddNote("FAIL: k=%d returned %d, want %d", k, v, core.TrueOrderStatistic(sorted, k))
		}
		t.AddRow(fmt.Sprintf("%.3f", frac), k, v, d.MaxPerNode, res.Sweeps, exact)
		costs = append(costs, float64(d.MaxPerNode))
	}
	minCost := costs[0]
	for _, c := range costs {
		if c < minCost {
			minCost = c
		}
	}
	spread := (stats.Max(costs) - minCost) / stats.Mean(costs)
	t.AddNote("Per-node bits vary %.1f%% of mean across ranks: extreme ranks skip the Fig. 1 probes whose count is already known, and gamma-coded partial counts are shorter there.", 100*spread)
	return t, nil
}
