package byz

import (
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

// BenchmarkLocalize is the byz layer's steady-state benchmark: one full
// localization (audit rounds, quarantines, re-heals, the two clean closing
// rounds) of a 1024-node grid with 5% persistent liars. The network is
// built once and each iteration's fault plan and meter reset happen outside
// the timer — Localize consumes its plan (quarantine marks, lie counters).
// bits/node is the whole localization's max per-node traffic: deterministic,
// so the gate catches an audit that started charging differently.
func BenchmarkLocalize(b *testing.B) {
	nw := buildNet(b, topology.Grid(32, 32), faults.Spec{}, 1)
	view := spantree.FullView(nw.Tree)
	spec := faults.Spec{Byz: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw.Meter.Reset()
		nw.Faults = faults.New(spec, nw.N(), nw.Root(), 1)
		b.StartTimer()
		rep, _, err := Localize(nw, view)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Quarantined) != nw.Faults.ByzantineCount() {
			b.Fatalf("quarantined %d of %d liars", len(rep.Quarantined), nw.Faults.ByzantineCount())
		}
	}
	b.ReportMetric(float64(nw.Meter.MaxPerNode()), "bits/node")
}
