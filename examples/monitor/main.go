// Continuous monitoring: the TAG operating mode the paper's protocols live
// inside. A standing median query re-runs every epoch over a drifting
// temperature field (a warm front passing through the deployment), served
// by serve.AdvanceEpoch, while the base station tracks the radio energy the
// hottest node's bits cost. The run shows the paper's point operationally: the
// per-epoch cost of the exact median is small and flat, so the standing
// query survives thousands of epochs.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"sensoragg/internal/energy"
	"sensoragg/internal/engine"
	"sensoragg/internal/serve"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

func main() {
	const (
		n         = 1500
		maxX      = 1023 // tenths of °C above -20
		seed      = 21
		statement = "SELECT median(value)"
	)
	spec := engine.Spec{Topology: "rgg", N: n, Workload: string(workload.Drift), MaxX: maxX, Seed: seed}
	// The deployment's base readings, as the engine's session generates them.
	base := workload.Generate(workload.Drift, n, maxX, seed)

	// A warm front: a sinusoidal bump sweeping across node indices over the
	// day, on top of each node's base reading (non-cumulative). Epochs
	// count from 1.
	front := func(e int, node topology.NodeID, prev uint64) uint64 {
		phase := 2 * math.Pi * (float64(e-1)/48 - float64(node)/float64(n))
		bump := 120 * math.Max(0, math.Sin(phase))
		return base[node] + uint64(bump)
	}

	svc, err := serve.New(serve.Options{Spec: spec, Update: front})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), statement)
	if err != nil {
		log.Fatal(err)
	}

	model := energy.MoteDefaults()
	// The hottest node's bits, priced half sent and half received; each
	// message's fixed wake-up overhead comes on top.
	perBit := (model.TxPerBit + model.RxPerBit) / 2
	const epochs = 48 // one day at 30-minute epochs
	fmt.Printf("standing query %q over %d sensors, %d epochs (30 min each)\n\n", statement, n, epochs)
	fmt.Printf("%-8s %12s %14s %16s\n", "epoch", "median °C", "b/node", "hottest bits J")
	toC := func(v float64) float64 { return v/10 - 20 }
	var used float64
	for e := 0; e < epochs; e++ {
		r := svc.AdvanceEpoch(context.Background())[0]
		<-sub.Results() // the same answer, delivered to the subscriber
		if r.Failed() {
			log.Fatalf("epoch %d: %s", r.Epoch, r.Error)
		}
		used += float64(r.BitsPerNode) * perBit
		if e%8 == 0 {
			fmt.Printf("%-8d %12.1f %14d %16s\n", e, toC(r.Value), r.BitsPerNode, energy.FormatJoules(used))
		}
	}

	perEpoch := used / epochs
	lifetimeEpochs := model.Battery / perEpoch
	fmt.Printf("\nhottest node's bits cost ≈ %s per epoch → on bit energy alone the standing query survives ≈ %.0f epochs",
		energy.FormatJoules(perEpoch), lifetimeEpochs)
	fmt.Printf(" (≈ %.1f years at this rate).\n", energy.Years(lifetimeEpochs, 1800))
	fmt.Println("The median tracks the warm front with a flat per-epoch cost — the (log N)² bound")
	fmt.Println("does not depend on what the sensors read (Theorem 3.2 is worst-case).")
}
