// Percentile dashboard: the Section 3.4 generalization in action. A
// network measuring per-node request latencies answers p10/p50/p90/p99
// queries with the exact k-order-statistic search, and the same questions
// with the cheaper one-pass summaries (GK [4]) and sampling ([10]) for
// contrast — the accuracy/cost tradeoff the paper's related-work section is
// about, on heavy-tailed (Zipf) data where percentiles actually matter.
package main

import (
	"fmt"
	"log"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/gk"
	"sensoragg/internal/netsim"
	"sensoragg/internal/sampling"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

func main() {
	// 4096 nodes reporting latencies in microseconds, heavy-tailed.
	const maxX = 1 << 16
	g := topology.Grid(64, 64)
	values := workload.Generate(workload.Zipf, g.N(), maxX, 99)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(99))
	net := agg.NewNet(spantree.NewFast(nw))
	ops := net.Ops()
	sorted := core.SortedCopy(values)
	n := len(values)

	fmt.Printf("latency percentiles over %d nodes (Zipf tail, max observed %dµs)\n\n", n, sorted[n-1])
	fmt.Printf("%-6s %10s %14s %14s %12s\n", "pct", "true", "exact (Fig.1)", "gk-summary", "sampling")

	for _, pct := range []float64{0.10, 0.50, 0.90, 0.99} {
		k := uint64(pct * float64(n))
		if k < 1 {
			k = 1
		}
		exact, err := core.OrderStatistic(net, k)
		if err != nil {
			log.Fatal(err)
		}
		gkRes, err := gk.QuantileProtocol(ops, 32, k)
		if err != nil {
			log.Fatal(err)
		}
		smp, err := sampling.Quantile(ops, 256, 99, pct)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p%-5.0f %9dµs %13dµs %13dµs %11dµs\n",
			pct*100, core.TrueOrderStatistic(sorted, int(k)), exact.Values[0], gkRes.Value, smp.Value)
	}

	fmt.Printf("\ncommunication for the whole dashboard: %d bits/node (max)\n", nw.Meter.MaxPerNode())
	fmt.Println("exact percentiles are right even at p99, where summaries and samples blur the tail;")
	fmt.Println("each exact query is a fresh multi-pass binary search, so cost scales with query count —")
	fmt.Println("the one-pass GK summary answers all ranks at once (the tradeoff of §1 vs [4]).")
}
