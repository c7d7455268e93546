// Robustness: why the paper's Section 2.2 builds on sketches. Sensor links
// retransmit and multipath-duplicate messages; Considine et al. [2] and
// Nath et al. [10] observed that aggregates with idempotent merges (MAX,
// cardinality sketches) are immune, while COUNT and SUM double-count. This
// example attaches internal/faults duplication plans at increasing rates
// and watches each aggregate — then shows the same items counted by a
// gossiped sketch that never needed a spanning tree at all.
//
// The second act escalates from benign duplication to an adversary: a
// subtree that LIES in its convergecast partials. Idempotent merges are no
// defense against a liar, so the example answers the same median twice —
// plain, where the lie lands in the answer, and on the Byzantine-robust
// tier (internal/byz via the engine's Robust query mode), where
// challenge-sum audits convict the lying subtree, the healing wave
// re-routes around it, and the printed integrity bound certifies how far
// the answer could still be off (0 = exact over the honest survivors).
package main

import (
	"context"
	"fmt"
	"log"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/gossip"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func main() {
	duplicationAct()
	adversaryAct()
}

func duplicationAct() {
	const maxX = 4095
	g := topology.Grid(24, 24)
	values := workload.Generate(workload.Gaussian, g.N(), maxX, 11)

	var trueMax, trueSum uint64
	for _, v := range values {
		if v > trueMax {
			trueMax = v
		}
		trueSum += v
	}
	trueCount := uint64(len(values))

	fmt.Printf("grid of %d sensors; truth: count=%d sum=%d max=%d\n\n", g.N(), trueCount, trueSum, trueMax)
	fmt.Printf("%-10s %12s %16s %10s %14s\n", "dup rate", "COUNT", "SUM", "MAX", "APX COUNT")

	var clean float64
	for _, dup := range []float64{0, 0.1, 0.3} {
		nw := netsim.New(g, values, maxX, netsim.WithSeed(11))
		nw.Faults = faults.New(faults.Spec{Dup: dup}, nw.N(), nw.Root(), 11)
		net := agg.NewNet(spantree.NewFast(nw))

		count := net.Count(core.Linear, wire.True())
		sum := net.Sum(core.Linear, wire.True())
		_, max, ok := net.MinMax(core.Linear)
		if !ok {
			log.Fatal("empty network")
		}
		sketch := net.ApxCount(core.Linear, wire.True())
		if dup == 0 {
			clean = sketch
		}
		marker := func(same bool) string {
			if same {
				return "✓"
			}
			return "✗"
		}
		fmt.Printf("%-10.1f %10d %s %14d %s %8d %s %12.1f %s\n",
			dup,
			count, marker(count == trueCount),
			sum, marker(sum == trueSum),
			max, marker(max == trueMax),
			sketch, marker(sketch == clean))
	}

	fmt.Println("\nCOUNT and SUM compound duplication at every hop ((1+p)^depth); MAX and the")
	fmt.Println("sketch are bit-identical under any duplication because their merges are idempotent.")

	// The logical conclusion of ODI: drop the tree entirely and gossip the
	// sketch — any number of redundant paths, same answer.
	nw := netsim.New(g, values, maxX, netsim.WithSeed(11))
	truth := core.TrueDistinct(values)
	res := gossip.Distinct(nw, 8, loglog.EstHLL, 11, gossip.Params{Rounds: 200})
	fmt.Printf("\ntreeless gossiped sketch: %d distinct values estimated as %.1f (±%.0f%%),\n",
		truth, res.Estimate, 100*loglog.SigmaOf(loglog.EstHLL, 256))
	fmt.Println("with every message travelling an arbitrary, redundant gossip path.")
}

// adversaryAct runs the lying-subtree median: the same deployment answers
// SELECT median twice under a Byzantine fault plan — plain, then on the
// robust tier — and prints the integrity accounting. Deterministic: the
// example's output is asserted by a test.
func adversaryAct() {
	const byzRate = 0.08
	eng := engine.New(engine.Options{Workers: 1})
	spec := engine.Spec{
		Topology: "grid", N: 256, Workload: string(workload.Gaussian),
		Seed: 11, Faults: faults.Spec{Byz: byzRate},
	}
	fmt.Printf("\n--- act two: a lying subtree (byz=%.2f, %d sensors) ---\n", byzRate, spec.N)

	res := eng.Submit(context.Background(), []engine.Job{
		{ID: "plain", Spec: spec, Query: engine.Query{Kind: engine.KindMedian}},
		{ID: "robust", Spec: spec, Query: engine.Query{Kind: engine.KindMedian, Robust: true}},
	})
	plain, robust := res[0], res[1]
	if plain.Failed() || robust.Failed() {
		log.Fatalf("adversary act failed: plain %q robust %q", plain.Error, robust.Error)
	}
	mark := "✗ (the lie landed)"
	if plain.Exact {
		mark = "✓ (the lie missed this run)"
	}
	fmt.Printf("plain median:  %s, truth %s %s\n",
		engine.FormatValue(plain.Value), engine.FormatValue(plain.Truth), mark)
	fmt.Printf("robust median: %s, truth %s — %d liars quarantined in %d audit rounds (%d audit bits)\n",
		engine.FormatValue(robust.Value), engine.FormatValue(robust.Truth),
		robust.Quarantined, robust.AuditRounds, robust.AuditBits)
	fmt.Printf("integrity bound: ±%d items", robust.IntegrityBound)
	if robust.IntegrityBound == 0 {
		fmt.Println(" — the answer is certified exact over the honest survivors")
	} else {
		fmt.Println(" — a still-suspect sector could displace at most this many items")
	}
	if !robust.Exact {
		log.Fatalf("robust median %g != surviving truth %g", robust.Value, robust.Truth)
	}
	fmt.Println("\nidempotent merges survive duplication, but only the audit tier survives a liar:")
	fmt.Println("the challenge sums convict the corrupted subtree, the healing wave routes around")
	fmt.Println("it, and the bound turns \"trust me\" into a per-answer guarantee.")
}
