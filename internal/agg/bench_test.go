package agg

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// BenchmarkSweep is the convergecast kernel's steady-state benchmark, one
// protocol (broadcast + convergecast) per iteration on a warm fast engine
// over a square grid with one uniform reading per node — the shape fleet
// (4,096 nodes) and bignet (65,536) run — at team sizes 1 (the sequential
// schedule), 2 and GOMAXPROCS. ns/node is the per-node cost of one sweep,
// the unit the kernel's cost is fixed in; bits/node is the sweep's max
// per-node traffic (deterministic, and the same at every team size).
func BenchmarkSweep(b *testing.B) {
	chain := func(k int, maxX uint64) []wire.Pred {
		preds := make([]wire.Pred, k)
		for i := range preds {
			preds[i] = wire.Less(uint64(i+1) * maxX / uint64(k+1))
		}
		return preds
	}
	teams := slices.Compact([]int{1, 2, max(2, runtime.GOMAXPROCS(0))})
	for _, side := range []int{64, 256} {
		g := topology.Grid(side, side)
		maxX := uint64(4 * g.N())
		values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
		nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
		ops := spantree.NewFast(nw)
		net := NewNet(ops)
		var dst []uint64

		type sweep struct {
			name string
			run  func()
		}
		sweeps := []sweep{
			{"MultiAggregate", func() { net.MultiAggregate(core.Linear, wire.True()) }},
			{"MinMax", func() { net.MinMax(core.Linear) }},
			{"Count", func() { net.Count(core.Linear, wire.Less(maxX/2)) }},
			{"Sum", func() { net.Sum(core.Linear, wire.True()) }},
		}
		for _, k := range []int{1, 8, 16, 48} {
			preds := chain(k, maxX)
			sweeps = append(sweeps, sweep{fmt.Sprintf("CountVec%d", k), func() { dst = net.CountVec(core.Linear, preds, dst) }})
		}
		preds8 := chain(8, maxX)
		sweeps = append(sweeps, sweep{"CountVecSum8", func() { dst, _ = net.CountVecSum(core.Linear, preds8, dst) }})

		for _, team := range teams {
			for _, s := range sweeps {
				b.Run(fmt.Sprintf("N=%d/team=%d/%s", g.N(), team, s.name), func(b *testing.B) {
					ops.SetWorkers(team)
					s.run() // warm the slots, the partition and the combiner boxes
					b.ReportAllocs()
					before := nw.Meter.Snapshot()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.run()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/node")
					b.ReportMetric(float64(nw.Meter.Since(before).MaxPerNode)/float64(b.N), "bits/node")
				})
			}
		}
	}
}
