// Quickstart: build a simulated sensor network, run the easy TAG
// aggregates (Fact 2.1), then the paper's headline protocol — the exact
// median at O((log N)²) bits per node (Theorem 3.2) — and compare its cost
// with shipping all raw data to the root.
package main

import (
	"fmt"
	"log"

	"sensoragg/internal/agg"
	"sensoragg/internal/baseline"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func main() {
	// A 32x32 sensor grid; each node holds one reading in [0, 4095].
	const maxX = 4095
	g := topology.Grid(32, 32)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 42)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(42))

	// The paper's primitives run on a bounded-degree BFS spanning tree.
	net := agg.NewNet(spantree.NewFast(nw))
	fmt.Printf("deployment: %s (%d nodes, spanning tree height %d)\n\n",
		g.Name, g.N(), nw.Tree.Height())

	// Fact 2.1: MIN/MAX/COUNT/AVG cost O(log N) bits per node.
	lo, hi, _ := net.MinMax(core.Linear)
	count := net.Count(core.Linear, wire.True())
	avg, _ := net.Average(core.Linear, wire.True())
	fmt.Printf("min=%d max=%d count=%d avg=%.1f\n", lo, hi, count, avg)
	fmt.Printf("  cost so far: %d bits/node (easy aggregates are cheap)\n\n", nw.Meter.MaxPerNode())

	// Theorem 3.2: the exact median by binary search over COUNTP.
	before := nw.Meter.Snapshot()
	med, err := core.Median(net)
	if err != nil {
		log.Fatal(err)
	}
	d := nw.Meter.Since(before)
	fmt.Printf("median=%d in %d sweeps, %d bits/node\n", med.Values[0], med.Sweeps, d.MaxPerNode)

	// The TAG-era alternative: ship every reading to the root.
	nw2 := netsim.New(g, values, maxX, netsim.WithSeed(42))
	all, err := baseline.CollectAllMedian(spantree.NewFast(nw2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collect-all median=%d, %d bits/node — %.0fx more than the paper's protocol\n",
		all.Value, all.Comm.MaxPerNode, float64(all.Comm.MaxPerNode)/float64(d.MaxPerNode))
}
