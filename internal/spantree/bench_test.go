package spantree

import (
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
)

// BenchmarkHeal is the repair protocol's steady-state benchmark: one full
// heal (heartbeat, detached flood, HELP, AVAIL/JOIN waves, view assembly)
// of a 4096-node grid with 3% crashed nodes and 2% dead links. Network and
// plan are built outside the timer; Heal does not consume the plan.
// bits/node is one repair's max per-node traffic (deterministic).
func BenchmarkHeal(b *testing.B) {
	nw := faultyNet(topology.Grid(64, 64), faults.Spec{Crash: 0.03, LinkFail: 0.02}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var res *HealResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Heal(nw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Repair.MaxPerNode), "bits/node")
}
