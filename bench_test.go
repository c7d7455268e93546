// Package sensoragg's root benchmark harness: one benchmark family per
// experiment in DESIGN.md's index (E1–E10). Each benchmark reports the
// paper's complexity measure — max bits sent+received by any node — as the
// custom metric "bits/node" alongside wall-clock cost, so
// `go test -bench=. -benchmem` regenerates the cost side of every table.
package sensoragg

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/baseline"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/gk"
	"sensoragg/internal/gossip"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/sampling"
	"sensoragg/internal/serve"
	"sensoragg/internal/singlehop"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func gridNet(n int, wl workload.Kind, seed uint64, opts ...agg.Option) *agg.Net {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	g := topology.Grid(side, side)
	maxX := uint64(4 * n)
	values := workload.Generate(wl, g.N(), maxX, seed)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(seed))
	return agg.NewNet(spantree.NewFast(nw), opts...)
}

func reportBits(b *testing.B, nw *netsim.Network, before netsim.Snapshot) {
	b.Helper()
	b.ReportAllocs()
	d := nw.Meter.Since(before)
	b.ReportMetric(float64(d.MaxPerNode)/float64(b.N), "bits/node")
	b.ReportMetric(float64(d.TotalBits)/float64(b.N)/1000, "Kb-total")
}

// BenchmarkPrimitives — E1 (Fact 2.1): MIN/MAX, COUNT, SUM at O(log N).
func BenchmarkPrimitives(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		net := gridNet(n, workload.Uniform, 1)
		nw := net.Network()
		b.Run(fmt.Sprintf("minmax/N=%d", nw.N()), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.MinMax(core.Linear)
			}
			reportBits(b, nw, before)
		})
		b.Run(fmt.Sprintf("count/N=%d", nw.N()), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.Count(core.Linear, wire.True())
			}
			reportBits(b, nw, before)
		})
		b.Run(fmt.Sprintf("sum/N=%d", nw.N()), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.Sum(core.Linear, wire.True())
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkApxCount — E2 (Fact 2.2): one α-counting instance per m.
func BenchmarkApxCount(b *testing.B) {
	for _, p := range []int{4, 8, 10} {
		net := gridNet(4096, workload.Uniform, 2, agg.WithSketchP(p))
		nw := net.Network()
		b.Run(fmt.Sprintf("m=%d", 1<<p), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.ApxCount(core.Linear, wire.True())
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkMedianDet — E3 (Theorem 3.2): exact median, O((log N)^2).
func BenchmarkMedianDet(b *testing.B) {
	for _, n := range []int{1024, 16384, 65536} {
		net := gridNet(n, workload.Uniform, 3)
		nw := net.Network()
		b.Run(fmt.Sprintf("N=%d", nw.N()), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := core.Median(net); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkOrderStat — E4 (§3.4): arbitrary ranks cost the same.
func BenchmarkOrderStat(b *testing.B) {
	net := gridNet(4096, workload.Zipf, 4)
	nw := net.Network()
	for _, k := range []uint64{1, 1024, 4095} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := core.OrderStatistic(net, k); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkApxMedian — E5 (Theorem 4.5).
func BenchmarkApxMedian(b *testing.B) {
	for _, eps := range []float64{0.5, 0.25} {
		net := gridNet(4096, workload.Uniform, 5)
		nw := net.Network()
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApxMedian(net, core.ApxParams{Epsilon: eps}); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkApxMedian2 — E6 (Theorem 4.7/Corollary 4.8): the bits/node
// metric should stay near-flat across the N sub-benchmarks.
func BenchmarkApxMedian2(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		net := gridNet(n, workload.Uniform, 6)
		nw := net.Network()
		b.Run(fmt.Sprintf("N=%d", nw.N()), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApxMedian2(net, core.Apx2Params{Beta: 1.0 / 16, Epsilon: 0.25}); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkCountDistinct — E7 (§5): exact vs sketch.
func BenchmarkCountDistinct(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		g := topology.Grid(side, side)
		maxX := uint64(8 * n)
		values := workload.Generate(workload.Uniform, g.N(), maxX, 7)
		b.Run(fmt.Sprintf("exact/N=%d", g.N()), func(b *testing.B) {
			nw := netsim.New(g, values, maxX)
			ops := spantree.NewFast(nw)
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := distinct.Exact(ops); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
		b.Run(fmt.Sprintf("sketch/N=%d", g.N()), func(b *testing.B) {
			nw := netsim.New(g, values, maxX)
			ops := spantree.NewFast(nw)
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := distinct.Approximate(ops, 6, loglog.EstHLL, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkDisjointness — E8 (Theorem 5.1): cut bits via the reduction.
func BenchmarkDisjointness(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				h := distinct.DisjointnessHarness{SetSize: n, SketchP: -1, Seed: uint64(i)}
				run, err := h.Run(i%2 == 0)
				if err != nil {
					b.Fatal(err)
				}
				cut += run.CutBits
			}
			b.ReportMetric(float64(cut)/float64(b.N), "cut-bits")
		})
	}
}

// BenchmarkMedianShootout — E9 (§1): every median protocol on one input.
func BenchmarkMedianShootout(b *testing.B) {
	const n = 4096
	g := topology.Grid(64, 64)
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 9)
	fresh := func() *netsim.Network { return netsim.New(g, values, maxX, netsim.WithSeed(9)) }

	b.Run("collectall", func(b *testing.B) {
		nw := fresh()
		ops := spantree.NewFast(nw)
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.CollectAllMedian(ops); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("fig1-det", func(b *testing.B) {
		nw := fresh()
		net := agg.NewNet(spantree.NewFast(nw))
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := core.Median(net); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("gk", func(b *testing.B) {
		nw := fresh()
		ops := spantree.NewFast(nw)
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := gk.MedianProtocol(ops, 24); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("sampling", func(b *testing.B) {
		nw := fresh()
		ops := spantree.NewFast(nw)
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := sampling.Median(ops, 128, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("gossip", func(b *testing.B) {
		nw := fresh()
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := gossip.Median(nw, gossip.Params{Rounds: 384}); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("fig2-apx", func(b *testing.B) {
		nw := fresh()
		net := agg.NewNet(spantree.NewFast(nw))
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := core.ApxMedian(net, core.ApxParams{Epsilon: 0.25}); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
	b.Run("fig4-apx2", func(b *testing.B) {
		nw := fresh()
		net := agg.NewNet(spantree.NewFast(nw))
		before := nw.Meter.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := core.ApxMedian2(net, core.Apx2Params{Beta: 1.0 / 16, Epsilon: 0.25}); err != nil {
				b.Fatal(err)
			}
		}
		reportBits(b, nw, before)
	})
}

// BenchmarkDuplication — E10 ([2],[10]): the sketch fold under link
// duplication, every duplicate delivery charged.
func BenchmarkDuplication(b *testing.B) {
	const n = 1024
	g := topology.Grid(32, 32)
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 10)
	for _, dup := range []float64{0, 0.2} {
		b.Run(fmt.Sprintf("dup=%.1f", dup), func(b *testing.B) {
			nw := netsim.New(g, values, maxX, netsim.WithSeed(10))
			nw.Faults = faults.New(faults.Spec{Dup: dup}, nw.N(), nw.Root(), 10)
			net := agg.NewNet(spantree.NewFast(nw))
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.ApxCount(core.Linear, wire.True())
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkEngines compares the two tree-execution engines on the same
// convergecast workload (goroutine-per-node dataflow vs level-order).
func BenchmarkEngines(b *testing.B) {
	const n = 4096
	g := topology.Grid(64, 64)
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 11)
	for _, engine := range []string{"fast", "goroutine"} {
		b.Run(engine, func(b *testing.B) {
			nw := netsim.New(g, values, maxX, netsim.WithSeed(11))
			var ops spantree.Ops
			if engine == "fast" {
				ops = spantree.NewFast(nw)
			} else {
				ops = spantree.NewGoroutine(nw)
			}
			net := agg.NewNet(ops)
			for i := 0; i < b.N; i++ {
				net.Count(core.Linear, wire.True())
			}
		})
	}
}

// BenchmarkSingleHop — E11 ([14]): exact selection in the all-hear-all
// radio model; the custom metrics separate transmit-only from the paper's
// send+receive measure.
func BenchmarkSingleHop(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := topology.Complete(n)
		maxX := uint64(4 * n)
		values := workload.Generate(workload.Uniform, n, maxX, 12)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var tx, total int64
			for i := 0; i < b.N; i++ {
				nw := netsim.New(g, values, maxX, netsim.WithSeed(12))
				res, err := singlehop.Median(nw)
				if err != nil {
					b.Fatal(err)
				}
				tx += res.MaxTransmitBits
				total += res.Comm.MaxPerNode
			}
			b.ReportMetric(float64(tx)/float64(b.N), "tx-bits/node")
			b.ReportMetric(float64(total)/float64(b.N), "bits/node")
		})
	}
}

// BenchmarkAblations — E12: the degree-bound and repetition-reading
// ablations as cost benchmarks.
func BenchmarkAblations(b *testing.B) {
	const n = 1024
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Uniform, n, maxX, 13)
	for _, bound := range []int{0, 8} {
		label := fmt.Sprintf("star-count/maxChildren=%d", bound)
		if bound == 0 {
			label = "star-count/unbounded"
		}
		b.Run(label, func(b *testing.B) {
			nw := netsim.New(topology.Star(n), values, maxX, netsim.WithSeed(13), netsim.WithMaxChildren(bound))
			net := agg.NewNet(spantree.NewFast(nw))
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				net.Count(core.Linear, wire.True())
			}
			reportBits(b, nw, before)
		})
	}
	for _, scale := range []float64{6, 32} {
		b.Run(fmt.Sprintf("apxmedian-repscale=%g", scale), func(b *testing.B) {
			g := topology.Grid(32, 32)
			nw := netsim.New(g, values, maxX, netsim.WithSeed(13))
			net := agg.NewNet(spantree.NewFast(nw))
			before := nw.Meter.Snapshot()
			for i := 0; i < b.N; i++ {
				if _, err := core.ApxMedian(net, core.ApxParams{Epsilon: 0.25, RepScaleIter: scale}); err != nil {
					b.Fatal(err)
				}
			}
			reportBits(b, nw, before)
		})
	}
}

// BenchmarkTreeBuild measures the distributed BFS construction protocol —
// the setup cost TAG-era systems amortize across queries.
func BenchmarkTreeBuild(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		g := topology.RandomGeometric(n, 0, 14)
		maxX := uint64(4 * n)
		values := workload.Generate(workload.Uniform, g.N(), maxX, 14)
		b.Run(fmt.Sprintf("rgg/N=%d", n), func(b *testing.B) {
			var perNode int64
			for i := 0; i < b.N; i++ {
				nw := netsim.New(g, values, maxX, netsim.WithSeed(uint64(i)))
				res, err := spantree.BuildBFS(nw)
				if err != nil {
					b.Fatal(err)
				}
				perNode += res.Comm.MaxPerNode
			}
			b.ReportMetric(float64(perNode)/float64(b.N), "bits/node")
		})
	}
}

// BenchmarkMedianBatched — the k-ary probe plane against bisection on one
// 4096-node grid: "bisect" is width 1, the Fig. 1 binary search less the
// probes whose count is already known (core.Median); width=k batches k
// COUNT probes per CountVec sweep. The sweeps/op metric is the round count
// the batching compresses.
func BenchmarkMedianBatched(b *testing.B) {
	net := gridNet(4096, workload.Uniform, 17)
	nw := net.Network()
	b.Run("bisect", func(b *testing.B) {
		before := nw.Meter.Snapshot()
		var sweeps int
		for i := 0; i < b.N; i++ {
			res, err := core.Median(net)
			if err != nil {
				b.Fatal(err)
			}
			sweeps += res.Sweeps
		}
		reportBits(b, nw, before)
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
	for _, width := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			before := nw.Meter.Snapshot()
			var sweeps int
			for i := 0; i < b.N; i++ {
				res, err := core.SelectRanksBatched(net, []core.BatchRank{{Median: true}}, width)
				if err != nil {
					b.Fatal(err)
				}
				sweeps += res.Sweeps
			}
			reportBits(b, nw, before)
			b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
		})
	}
}

// BenchmarkMultiQuantile — five quantiles answered by one shared k-ary
// probe schedule vs five separate batched searches: the sharing is where
// the probe plane wins outright on every axis (sweeps, bits, wall-clock).
func BenchmarkMultiQuantile(b *testing.B) {
	phis := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	ranks := make([]core.BatchRank, len(phis))
	for i, phi := range phis {
		ranks[i] = core.BatchRank{Phi: phi}
	}
	net := gridNet(4096, workload.Uniform, 18)
	nw := net.Network()
	b.Run("shared", func(b *testing.B) {
		before := nw.Meter.Snapshot()
		var sweeps int
		for i := 0; i < b.N; i++ {
			res, err := core.SelectRanksBatched(net, ranks, core.DefaultProbeWidth)
			if err != nil {
				b.Fatal(err)
			}
			sweeps += res.Sweeps
		}
		reportBits(b, nw, before)
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
	b.Run("separate", func(b *testing.B) {
		before := nw.Meter.Snapshot()
		var sweeps int
		for i := 0; i < b.N; i++ {
			for j := range ranks {
				res, err := core.SelectRanksBatched(net, ranks[j:j+1], core.DefaultProbeWidth)
				if err != nil {
					b.Fatal(err)
				}
				sweeps += res.Sweeps
			}
		}
		reportBits(b, nw, before)
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
}

// BenchmarkEngineMedian8 — the concurrency acceptance gate: 8 independent
// exact-median queries on independently-seeded 4096-node grids, executed
// through the query engine serially (worker pool of 1) and in parallel
// (worker pool of GOMAXPROCS). On a multi-core runner the parallel variant
// must be ≥2× faster wall-clock; results are bit-identical either way.
// Session templates are warmed before timing so the comparison measures
// query execution, not topology construction.
func BenchmarkEngineMedian8(b *testing.B) {
	const runs = 8
	jobs := make([]engine.Job, runs)
	for i := range jobs {
		jobs[i] = engine.Job{
			Spec:  engine.Spec{Topology: "grid", N: 4096, Workload: "uniform", Seed: uint64(i + 1)},
			Query: engine.Query{Kind: engine.KindMedian},
		}
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("%s/workers=%d", bc.name, bc.workers), func(b *testing.B) {
			b.ReportAllocs()
			eng := engine.New(engine.Options{Workers: bc.workers})
			for _, j := range jobs {
				if _, err := eng.Session().Template(j.Spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var bits int64
			for i := 0; i < b.N; i++ {
				results := eng.Submit(context.Background(), jobs)
				for _, r := range results {
					if r.Failed() {
						b.Fatal(r.Error)
					}
					bits += r.BitsPerNode
				}
			}
			b.ReportMetric(float64(bits)/float64(b.N)/runs, "bits/node")
			b.ReportMetric(float64(runs), "queries/op")
		})
	}
}

// BenchmarkEngineMedian8Fused — the fusion acceptance gate: 8 identical
// exact medians against ONE 4096-node deployment, solo (no fusion: the 8
// jobs are one job and 7 twins, so one batched search runs and every twin
// reports the cost of answering it alone) vs fused (WithFusion: a batch of
// one member answering 8 jobs). The sweeps/op metric sums the tree sweeps
// the results report — 8 planes' worth solo, the one shared plane fused —
// and bits/node prices them in the paper's measure. Since equal jobs run
// once either way, the ns/op columns no longer measure a fusion gain.
func BenchmarkEngineMedian8Fused(b *testing.B) {
	const runs = 8
	spec := engine.Spec{Topology: "grid", N: 4096, Workload: "uniform", Seed: 1}
	jobs := make([]engine.Job, runs)
	for i := range jobs {
		jobs[i] = engine.Job{Spec: spec, Query: engine.Query{Kind: engine.KindMedian}}
	}
	benchFusedBatch(b, jobs)
}

// BenchmarkEngineMedian8Byz — the Byzantine-robust tier's cost gate: 8
// exact medians on independently-seeded 1024-node grids with 5% of nodes
// lying, answered plain (the lies land, priced for contrast) and robust
// (challenge-sum audits localize and quarantine the liars, per-sector
// trimmed aggregation answers over the survivors). audit-bits prices the
// localization in the paper's measure next to the query's own bits/node,
// and quarantined/op counts the convicted liars per batch — the measured
// robustness overhead row in BENCH_BASELINE.json.
func BenchmarkEngineMedian8Byz(b *testing.B) {
	const runs = 8
	for _, bc := range []struct {
		name   string
		robust bool
	}{
		{"plain", false},
		{"robust", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			jobs := make([]engine.Job, runs)
			for i := range jobs {
				jobs[i] = engine.Job{
					Spec: engine.Spec{Topology: "grid", N: 1024, Workload: "uniform",
						Seed: uint64(i + 1), Faults: faults.Spec{Byz: 0.05}},
					Query: engine.Query{Kind: engine.KindMedian, Robust: bc.robust},
				}
			}
			eng := engine.New(engine.Options{Workers: 4})
			for _, j := range jobs {
				if _, err := eng.Session().Template(j.Spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var bits, audit, quarantined int64
			for i := 0; i < b.N; i++ {
				results := eng.Submit(context.Background(), jobs)
				for _, r := range results {
					if r.Failed() {
						b.Fatal(r.Error)
					}
					bits += r.BitsPerNode
					audit += r.AuditBits
					quarantined += int64(r.Quarantined)
				}
			}
			b.ReportMetric(float64(bits)/float64(b.N)/runs, "bits/node")
			b.ReportMetric(float64(audit)/float64(b.N)/runs, "audit-bits")
			b.ReportMetric(float64(quarantined)/float64(b.N), "quarantined/op")
		})
	}
}

// BenchmarkFusedMixed — heterogeneous fusion: a median, five quantiles,
// two order statistics, a fused aggregate, and the Fact 2.1 singletons
// interleave in one shared schedule. The solo variant runs each with its
// private plane.
func BenchmarkFusedMixed(b *testing.B) {
	spec := engine.Spec{Topology: "grid", N: 4096, Workload: "uniform", Seed: 1}
	jobs := []engine.Job{
		{Spec: spec, Query: engine.Query{Kind: engine.KindMedian}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindQuantiles, Phis: []float64{0.05, 0.25, 0.5, 0.75, 0.95}}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindOrderStat, K: 100}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindOrderStat, K: 4000}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindFused}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindCount}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindSum}},
		{Spec: spec, Query: engine.Query{Kind: engine.KindAvg}},
	}
	benchFusedBatch(b, jobs)
}

// benchFusedBatch runs jobs solo and fused on a fixed 4-worker pool,
// reporting total sweeps and per-node bits: the solo variant sums each
// job's private plane, the fused variant reports the one shared plane
// every member rode.
func benchFusedBatch(b *testing.B, jobs []engine.Job) {
	for _, bc := range []struct {
		name string
		fuse bool
	}{
		{"solo", false},
		{"fused", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := engine.New(engine.Options{Workers: 4})
			var opts []engine.SubmitOption
			if bc.fuse {
				opts = append(opts, engine.WithFusion())
			}
			for _, j := range jobs {
				if _, err := eng.Session().Template(j.Spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var sweeps, bits int64
			for i := 0; i < b.N; i++ {
				results := eng.Submit(context.Background(), jobs, opts...)
				for _, r := range results {
					if r.Failed() {
						b.Fatal(r.Error)
					}
				}
				if bc.fuse {
					if !results[0].Fused {
						b.Fatal("batch did not fuse")
					}
					sweeps += int64(results[0].SharedSweeps)
					bits += results[0].BitsPerNode
				} else {
					for _, r := range results {
						sweeps += int64(r.SharedSweeps)
						bits += r.BitsPerNode
					}
				}
			}
			b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
			b.ReportMetric(float64(bits)/float64(b.N), "bits/node")
			b.ReportMetric(float64(len(jobs)), "queries/op")
		})
	}
}

// BenchmarkEngineFaulty — E14's cost harness and the CI fault-sweep
// datapoint: an exact median on a 24×24 grid under a 5% crash plan. Every
// iteration re-runs the heartbeat/HELP/AVAIL/JOIN self-healing repair
// before the query, so "repair-bits" prices fault tolerance in the paper's
// own measure next to the query's bits/node.
func BenchmarkEngineFaulty(b *testing.B) {
	for _, spec := range []struct {
		name string
		fs   faults.Spec
	}{
		{"crash=0.05", faults.Spec{Crash: 0.05}},
		{"drop=0.02/dup=0.02", faults.Spec{Drop: 0.02, Dup: 0.02}},
	} {
		b.Run(spec.name, func(b *testing.B) {
			eng := engine.New(engine.Options{Workers: 1})
			job := engine.Job{
				Spec: engine.Spec{Topology: "grid", N: 576, Workload: "uniform",
					Seed: 1, Faults: spec.fs},
				Query: engine.Query{Kind: engine.KindMedian},
			}
			if _, err := eng.Session().Template(job.Spec); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var bits, repair int64
			for i := 0; i < b.N; i++ {
				r := eng.Submit(context.Background(), []engine.Job{job})[0]
				if r.Failed() {
					b.Fatal(r.Error)
				}
				bits += r.BitsPerNode
				repair += r.RepairBits
			}
			b.ReportMetric(float64(bits)/float64(b.N), "bits/node")
			b.ReportMetric(float64(repair)/float64(b.N), "repair-bits")
		})
	}
}

// BenchmarkEngineSessionReuse measures what the session cache saves: the
// cost of issuing one COUNT query against a cached 16384-node deployment
// (fork + query) vs building the network from scratch each time.
func BenchmarkEngineSessionReuse(b *testing.B) {
	spec := engine.Spec{Topology: "grid", N: 16384, Workload: "uniform", Seed: 1}
	q := engine.Query{Kind: engine.KindCount}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: 1})
			r := eng.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
			if r.Failed() {
				b.Fatal(r.Error)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: 1})
		if _, err := eng.Session().Template(spec); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := eng.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
			if r.Failed() {
				b.Fatal(r.Error)
			}
		}
	})
}

// benchDrift is the deterministic per-node drift model the serving
// benchmark uses: a hash-mixed walk of amplitude ±step, reproducible
// across runs so the bits/node gate stays meaningful.
func benchDrift(step uint64) func(int, topology.NodeID, uint64) uint64 {
	return func(e int, node topology.NodeID, prev uint64) uint64 {
		h := uint64(node)*0x9E3779B97F4A7C15 + uint64(e)*0xBF58476D1CE4E5B9
		h ^= h >> 33
		h *= 0xD6E8FEB86659FD93
		h ^= h >> 33
		next := int64(prev) + int64(h%(2*step+1)) - int64(step)
		if next < 0 {
			next = 0
		}
		return uint64(next)
	}
}

// BenchmarkServeSubscribers — the serving-layer acceptance gate: K
// subscribers re-asking `SELECT median(value)` every epoch over a drifting
// 4096-node grid, answered by the serve layer on one fused probe plane
// with delta-narrowing seeding each epoch's k-ary search from the answer
// history. bits/node prices ONE epoch serving ALL K subscribers — the gate
// requires it to stay within 2× one solo median's plane, where unfused
// serving would pay K planes. p50/p95 epoch latency rides alongside as
// informational metrics (ns/op is the hardware-gated row).
func BenchmarkServeSubscribers(b *testing.B) {
	spec := engine.Spec{Topology: "grid", N: 4096, Workload: "uniform", Seed: 1}
	solo := engine.New(engine.Options{Workers: 1}).
		Submit(context.Background(), []engine.Job{{Spec: spec, Query: engine.Query{Kind: engine.KindMedian}}})[0]
	if solo.Failed() {
		b.Fatal(solo.Error)
	}

	for _, subscribers := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subscribers), func(b *testing.B) {
			b.ReportAllocs()
			svc, err := serve.New(serve.Options{
				Spec:   spec,
				Engine: engine.New(engine.Options{Workers: 4}),
				Update: benchDrift(200),
				Buffer: 1, // the bench reads AdvanceEpoch's return; shed quietly
			})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			for i := 0; i < subscribers; i++ {
				if _, err := svc.Subscribe(context.Background(), "SELECT median(value)"); err != nil {
					b.Fatal(err)
				}
			}
			// Two priming epochs give delta-narrowing its move estimate;
			// the timed epochs then run seeded.
			for i := 0; i < 2; i++ {
				for _, r := range svc.AdvanceEpoch(context.Background()) {
					if r.Failed() {
						b.Fatal(r.Error)
					}
				}
			}
			b.ResetTimer()
			var bits int64
			latNS := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				out := svc.AdvanceEpoch(context.Background())
				latNS = append(latNS, float64(time.Since(start).Nanoseconds()))
				for _, r := range out {
					if r.Failed() {
						b.Fatal(r.Error)
					}
				}
				// Fused epoch: every subscriber's result prices the one
				// shared plane, so the first speaks for the epoch.
				bits += out[0].BitsPerNode
			}
			b.StopTimer()
			perEpoch := float64(bits) / float64(b.N)
			b.ReportMetric(perEpoch, "bits/node")
			b.ReportMetric(float64(subscribers), "subscribers")
			sort.Float64s(latNS)
			b.ReportMetric(latNS[len(latNS)/2], "p50-epoch-ns")
			b.ReportMetric(latNS[len(latNS)*95/100], "p95-epoch-ns")
			if subscribers > 1 && perEpoch > 2*float64(solo.BitsPerNode) {
				b.Fatalf("%d subscribers cost %.0f bits/node per epoch — over 2× one solo median (%d)",
					subscribers, perEpoch, solo.BitsPerNode)
			}
		})
	}

	// Non-identical fleet: 64 subscribers cycling three distinct standing
	// statements. All three kinds share one fuse key, so every epoch still
	// runs ONE batch — median and the five quantile ranks share the
	// selection plane, count rides the protocol's N. The gate compares one
	// mixed epoch against paying the three distinct statements' solo
	// planes separately: fusion must beat even the deduplicated unfused
	// strategy.
	b.Run("mixed/subs=64", func(b *testing.B) {
		statements := []string{
			"SELECT median(value)",
			"SELECT quantiles(value, 0.25, 0.5, 0.75, 0.9, 0.99)",
			"SELECT count(value)",
		}
		eng := engine.New(engine.Options{Workers: 1})
		var soloSum int64
		for _, stmt := range statements {
			q, _, err := serve.QueryFor(stmt)
			if err != nil {
				b.Fatal(err)
			}
			r := eng.Submit(context.Background(), []engine.Job{{Spec: spec, Query: q}})[0]
			if r.Failed() {
				b.Fatal(r.Error)
			}
			soloSum += r.BitsPerNode
		}

		b.ReportAllocs()
		svc, err := serve.New(serve.Options{
			Spec:   spec,
			Engine: engine.New(engine.Options{Workers: 4}),
			Update: benchDrift(200),
			Buffer: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		const subscribers = 64
		for i := 0; i < subscribers; i++ {
			if _, err := svc.Subscribe(context.Background(), statements[i%len(statements)]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			for _, r := range svc.AdvanceEpoch(context.Background()) {
				if r.Failed() {
					b.Fatal(r.Error)
				}
			}
		}
		b.ResetTimer()
		var bits int64
		latNS := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			out := svc.AdvanceEpoch(context.Background())
			latNS = append(latNS, float64(time.Since(start).Nanoseconds()))
			fused := false
			for _, r := range out {
				if r.Failed() {
					b.Fatal(r.Error)
				}
				fused = fused || r.Fused
			}
			if !fused {
				b.Fatal("mixed fleet did not fuse")
			}
			bits += out[0].BitsPerNode
		}
		b.StopTimer()
		perEpoch := float64(bits) / float64(b.N)
		b.ReportMetric(perEpoch, "bits/node")
		b.ReportMetric(float64(subscribers), "subscribers")
		sort.Float64s(latNS)
		b.ReportMetric(latNS[len(latNS)/2], "p50-epoch-ns")
		b.ReportMetric(latNS[len(latNS)*95/100], "p95-epoch-ns")
		if perEpoch > float64(soloSum) {
			b.Fatalf("mixed fleet costs %.0f bits/node per epoch — more than the %d of running its 3 distinct statements solo",
				perEpoch, soloSum)
		}
	})
}
