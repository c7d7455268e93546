package experiments

import (
	"fmt"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/stats"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// Duplication is experiment E10 — the robustness observation of Considine
// et al. [2] and Nath et al. [10] that frames the paper's Section 2.2
// choice of sketches: under link-layer duplication, MAX (idempotent) and
// the LogLog sketch (idempotent merge) are unaffected, while COUNT and SUM
// are corrupted in proportion to the duplication rate.
func Duplication(cfg Config) (*stats.Table, error) {
	t := &stats.Table{
		ID:     "E10",
		Title:  "Duplicate-insensitivity ([2],[10]): aggregate error vs duplication rate",
		Header: []string{"dup rate", "max err", "count err", "sum err", "sketch err"},
	}
	n := 1024
	if cfg.Quick {
		n = 256
	}
	maxX := uint64(4 * n)
	g := buildGraph(topoGrid, n, cfg.Seed)
	values := workload.Generate(workload.Uniform, g.N(), maxX, cfg.Seed)

	var wantMax, wantSum float64
	for _, v := range values {
		if float64(v) > wantMax {
			wantMax = float64(v)
		}
		wantSum += float64(v)
	}
	wantCount := float64(len(values))

	// Reference sketch estimate on reliable links (the sketch is an
	// estimator: the robustness claim is that duplication does not move it
	// at all, so compare against the fault-free estimate, not the truth).
	// The sketch fold draws every edge's deliveries from the plan like the
	// other convergecasts do, so a duplicate costs bits and changes nothing.
	refNet := agg.NewNet(spantree.NewFast(netsim.New(g, values, maxX, netsim.WithSeed(cfg.Seed))))
	refSketch := refNet.ApxCount(core.Linear, wire.True())

	for _, dup := range []float64{0, 0.05, 0.2, 0.5} {
		nw := netsim.New(g, values, maxX, netsim.WithSeed(cfg.Seed))
		nw.Faults = faults.New(faults.Spec{Dup: dup}, nw.N(), nw.Root(), cfg.Seed)
		net := agg.NewNet(spantree.NewFast(nw))

		_, gotMax, ok := net.MinMax(core.Linear)
		if !ok {
			return nil, fmt.Errorf("duplication: empty MinMax")
		}
		gotCount := float64(net.Count(core.Linear, wire.True()))
		gotSum := float64(net.Sum(core.Linear, wire.True()))
		gotSketch := net.ApxCount(core.Linear, wire.True())

		t.AddRow(dup,
			stats.RelErr(float64(gotMax), wantMax),
			stats.RelErr(gotCount, wantCount),
			stats.RelErr(gotSum, wantSum),
			stats.RelErr(gotSketch, refSketch))
	}
	t.AddNote("MAX and the LogLog sketch are unchanged at every duplication rate (idempotent merges); COUNT and SUM inflate *exponentially in path length* — each hop re-doubles with probability p, so (1+p)^depth — the [2]/[10] motivation for ODI synopses.")
	return t, nil
}
