//go:build !race

package distinct

import (
	"testing"

	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// TestWarmApproximateAllocs pins a warm sketch DISTINCT at a constant
// allocation count whatever the network size: the sketch fold allocates
// its one register array, not a sketch per node. Excluded under -race,
// whose runtime instruments allocations.
func TestWarmApproximateAllocs(t *testing.T) {
	for _, side := range []int{8, 64} {
		g := topology.Grid(side, side)
		nw := netsim.New(g, workload.Generate(workload.Zipf, g.N(), maxX, 3), maxX)
		ops := spantree.NewFast(nw)
		op := func() {
			if _, err := Approximate(ops, 10, loglog.EstHLL, 5); err != nil {
				t.Fatal(err)
			}
		}
		op()
		// The meter snapshot's per-node copy, the sketch and its registers.
		if allocs := testing.AllocsPerRun(50, op); allocs != 3 {
			t.Errorf("N=%d: warm Approximate: %.1f allocs/op, want 3 (snapshot, sketch, registers)", g.N(), allocs)
		}
	}
}
