//go:build !race

package byz

import (
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// TestRobustNetAllocs is the exact gate on what the sector-split plane
// costs per robust job once its run network is warm: per sector a view
// (parent array, Order sized once, its schedule built with it), an engine
// and an agg.Net — nothing per node, because every sector sweeps the
// network's one set of level-wide rings, and no sector's root vector is
// boxed; the full view's schedule is its tree's. Before the shared scratch this sequence allocated 347 times (a
// private N·k-word arena, N-sized vbits and per-level slices per sector
// engine, Order grown by doubling), and a scalar sweep added a stash
// writer per node per sector on top.
//
// The file is excluded under -race: the race runtime instruments
// allocations and the count stops being meaningful.
func TestRobustNetAllocs(t *testing.T) {
	nw := buildNet(t, topology.Grid(32, 32), faults.Spec{Byz: 0.05}, 1)
	view := spantree.FullView(nw.Tree)
	preds := []wire.Pred{wire.Less(10), wire.Less(25), wire.Less(50), wire.Less(75), wire.True()}
	var dst []uint64
	run := func() {
		dst = NewRobustNet(nw, view).CountVec(core.Linear, preds, dst)
	}
	run() // warm the network's scratch
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocs", allocs)
	if allocs > 26 {
		t.Errorf("NewRobustNet + one robust CountVec on a warm network: %.0f allocs, want <= 26", allocs)
	}
}
