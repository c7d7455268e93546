//go:build !race

package spantree_test

import (
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

// TestHealedViewEngineAllocs is the exact gate on what a healed-view
// engine costs once its run network is warm: the engine, what it derives
// from its view (child prefix sums, level bounds) and the agg.Net around
// it — nothing per node, and no root partial boxed. The rings, arenas
// and writers are the network's and are reused. Before the shared scratch
// this sequence allocated ≈ 8,600 times (a stash writer per node, an
// N·k-word arena, per-level slices). The warm full-view sweep's zero is
// gated in internal/agg (TestWarmCountQueryAllocs and its neighbours).
//
// The file is excluded under -race: the race runtime instruments
// allocations and the count stops being meaningful.
func TestHealedViewEngineAllocs(t *testing.T) {
	g := topology.Grid(64, 64)
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i*37) % 1000
	}
	pool := netsim.NewForkPool(netsim.New(g, values, 1023, netsim.WithSeed(1)))
	nw := pool.Get(1)
	nw.Faults = faults.New(faults.Spec{Crash: 0.03, LinkFail: 0.02}, nw.N(), nw.Root(), 1)
	hr, err := spantree.Heal(nw)
	if err != nil {
		t.Fatal(err)
	}
	preds := chainPreds(16)
	var dst []uint64
	run := func() {
		net := agg.NewNet(spantree.NewFastView(nw, hr.View))
		net.MinMax(core.Linear)
		dst = net.CountVec(core.Linear, preds, dst)
	}
	run() // warm the network's scratch
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocs", allocs)
	if allocs > 10 {
		t.Errorf("healed-view engine + MinMax + CountVec(16) on a warm fork: %.0f allocs, want <= 10", allocs)
	}
}
