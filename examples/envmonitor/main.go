// Environmental monitoring: the scenario that motivated TAG-era systems —
// a field of temperature sensors queried periodically by a base station.
// The median is the robust "typical temperature" statistic (unlike AVG it
// shrugs off a few broken sensors reporting extremes), and communication is
// the battery budget: radio bits are the dominant energy cost, so we
// translate per-node bits into an energy estimate and compare the exact
// median (Fig. 1), the approximate median (Fig. 2), and collect-all.
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

// nJPerBit approximates radio energy per transmitted/received bit for a
// mote-class transceiver (~230 nJ/bit at 250 kbps, 50 mW-class radios).
const nJPerBit = 230.0

func main() {
	// 2500 sensors scattered over a field (random geometric radio graph).
	// Readings are tenths of °C offset from -20°C: domain [0, 1023] covers
	// -20.0°C to +82.3°C. The drift workload gives a warm-to-cold gradient
	// across the field plus sensor noise.
	const maxX = 1023
	g := topology.RandomGeometric(2500, 0, 7)
	values := workload.Generate(workload.Drift, g.N(), maxX, 7)

	// A handful of faulty sensors report absurd extremes — the reason the
	// operator asks for the median, not the average.
	for i := 0; i < 25; i++ {
		values[i*97%len(values)] = maxX
	}

	nw := netsim.New(g, values, maxX, netsim.WithSeed(7))
	net := agg.NewNet(spantree.NewFast(nw))
	toC := func(v float64) float64 { return v/10 - 20 }

	fmt.Printf("field: %d sensors, radio graph %s, tree height %d\n\n", g.N(), g.Name, nw.Tree.Height())

	avg, _ := net.Average(core.Linear, wire.True())
	fmt.Printf("average temperature: %+.1f°C (pulled up by faulty sensors)\n", toC(avg))

	before := nw.Meter.Snapshot()
	med, err := core.Median(net)
	if err != nil {
		log.Fatal(err)
	}
	dMed := nw.Meter.Since(before)
	fmt.Printf("exact median:        %+.1f°C — %d bits/node ≈ %.1f µJ per query on the busiest sensor\n",
		toC(float64(med.Values[0])), dMed.MaxPerNode, float64(dMed.MaxPerNode)*nJPerBit/1000)

	before = nw.Meter.Snapshot()
	apx, err := core.ApxMedian(net, core.ApxParams{Epsilon: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	dApx := nw.Meter.Since(before)
	fmt.Printf("apx median (Fig.2):  %+.1f°C — %d bits/node ≈ %.1f µJ (σ band, constants dominate at this N)\n",
		toC(float64(apx.Value)), dApx.MaxPerNode, float64(dApx.MaxPerNode)*nJPerBit/1000)

	nw2 := netsim.New(g, values, maxX, netsim.WithSeed(7))
	all, err := baseline.CollectAllMedian(spantree.NewFast(nw2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collect-all:         %+.1f°C — %d bits/node ≈ %.1f µJ (the node next to the base station dies first)\n",
		toC(float64(all.Value)), all.Comm.MaxPerNode, float64(all.Comm.MaxPerNode)*nJPerBit/1000)

	fmt.Printf("\nAt %d nodes the exact binary search is the sweet spot: a robust, exact\n", g.N())
	fmt.Printf("statistic at %.1fx less hot-spot energy than raw collection — and the gap\n",
		float64(all.Comm.MaxPerNode)/float64(dMed.MaxPerNode))
	fmt.Println("widens linearly with deployment size (see experiment E9).")
}
