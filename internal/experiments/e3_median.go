package experiments

import (
	"fmt"
	"math/bits"

	"sensoragg/internal/core"
	"sensoragg/internal/stats"
	"sensoragg/internal/workload"
)

// DeterministicMedian is experiment E3 — Theorem 3.2: the Fig. 1 binary
// search (the width-1 selection search, which skips the probes whose count
// it already knows) computes the exact median with O((log N)^2) bits per
// node. The sweep varies N and the input distribution; exactness must be
// 100%, every cell within e3BitsPerLog2 · ⌈log₂N⌉² bits/node, and the
// fitted (log N)-exponent at most 2. A breach is a FAIL note.
func DeterministicMedian(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E3",
		Title:  "Exact median, Fig. 1 at probe width 1 (Theorem 3.2): bits/node vs N, exactness",
		Header: []string{"workload", "N", "b/node", "total Kb", "sweeps", "exact"},
	}
	ns := sizes(cfg, []int{256, 1024, 4096, 16384, 65536, 262144}, 1024)
	wls := []workload.Kind{workload.Uniform, workload.Zipf, workload.Bimodal, workload.FewDistinct}
	if cfg.Quick {
		wls = wls[:2]
	}

	exactAll := true
	for _, wl := range wls {
		var xs, perNode []float64
		for _, n := range ns {
			// Domain grows with N per the §2.1 assumption log X = O(log N).
			maxX := uint64(4 * n)
			net := simNet(topoGrid, n, wl, maxX, cfg.Seed+uint64(n))
			nw := net.Network()

			before := nw.Meter.Snapshot()
			res, err := core.Median(net)
			if err != nil {
				return nil, fmt.Errorf("median on %s N=%d: %w", wl, n, err)
			}
			d := nw.Meter.Since(before)

			sorted := core.SortedCopy(nw.AllItems())
			v := res.Values[0]
			exact := core.IsMedian(sorted, v) && v == core.TrueMedian(sorted)
			exactAll = exactAll && exact
			t.AddRow(string(wl), nw.N(), d.MaxPerNode, float64(d.TotalBits)/1000, res.Sweeps, exact)
			logN := float64(bits.Len(uint(nw.N() - 1))) // ⌈log₂N⌉
			if bound := e3BitsPerLog2 * logN * logN; float64(d.MaxPerNode) > bound {
				t.AddNote("FAIL: %s N=%d costs %d bits/node, above %d·⌈log₂N⌉² = %.0f", wl, nw.N(), d.MaxPerNode, e3BitsPerLog2, bound)
			}
			xs = append(xs, float64(nw.N()))
			perNode = append(perNode, float64(d.MaxPerNode))
		}
		if len(xs) >= 3 {
			exp := stats.FitPolyLog(xs, perNode)
			t.AddNote("%s: (log N)-exponent ≈ %.2f (Theorem 3.2 predicts ≈ 2)", wl, exp)
			if exp > 2 {
				t.AddNote("FAIL: %s's fitted (log N)-exponent %.2f exceeds Theorem 3.2's 2", wl, exp)
			}
		}
	}
	if exactAll {
		t.AddNote("Exactness: 100%% across all runs, as the theorem requires.")
	} else {
		t.AddNote("FAIL: some runs returned a non-median value.")
	}
	return t, nil
}

// e3BitsPerLog2 is E3's Theorem 3.2 constant: no cell may cost more than
// e3BitsPerLog2 · ⌈log₂N⌉² bits/node. Fig. 1's worst cell is 16.8
// (fewdistinct, N = 256).
const e3BitsPerLog2 = 17
