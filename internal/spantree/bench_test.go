package spantree_test

import (
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

// BenchmarkHeal is the repair protocol's layer benchmark on a 4096-node
// grid with 3% crashed nodes and 2% dead links, in four shapes:
//
//   - warm: one plan healed over and over — the repair alone, whatever a
//     plan lets a heal keep;
//   - cold: a fresh plan per heal, built outside the timer — what a
//     deployment that draws a new fault plan per query pays;
//   - reheal: a fresh phased plan per iteration and the sequence a query
//     runs under a mid-sweep strike — a heal, the strike (Tick, 5% of the
//     survivors crash), a second heal;
//   - rootkill: reheal's sequence with the strike also killing the root,
//     so the second heal re-roots at the lowest-ID survivor.
//
// It uses only the package's exported API. Plans cycle through eight
// seeds, and bits/node is the largest repair's max per-node traffic
// (deterministic once b.N ≥ 8).
func BenchmarkHeal(b *testing.B) {
	g := topology.Grid(64, 64)
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i*37) % 1000
	}
	nw := netsim.New(g, values, 1023, netsim.WithSeed(1))
	base := faults.Spec{Crash: 0.03, LinkFail: 0.02}
	phased := base
	phased.MidAt, phased.MidCrash = 1, 0.05
	rootKill := phased
	rootKill.MidKillRoot = true
	plan := func(spec faults.Spec, i int) *faults.Plan {
		return faults.New(spec, nw.N(), nw.Root(), uint64(i%8+1))
	}
	var worst int64
	heal := func(b *testing.B) {
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			b.Fatal(err)
		}
		worst = max(worst, hr.Repair.MaxPerNode)
	}
	run := func(name string, body func(b *testing.B, i int)) {
		b.Run(name, func(b *testing.B) {
			worst = 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body(b, i)
			}
			b.ReportMetric(float64(worst), "bits/node")
		})
	}
	run("warm", func(b *testing.B, i int) {
		if i == 0 {
			b.StopTimer()
			nw.Faults = plan(base, 0)
			b.StartTimer()
		}
		heal(b)
	})
	run("cold", func(b *testing.B, i int) {
		b.StopTimer()
		nw.Faults = plan(base, i)
		b.StartTimer()
		heal(b)
	})
	strike := func(spec faults.Spec) func(b *testing.B, i int) {
		return func(b *testing.B, i int) {
			b.StopTimer()
			nw.Faults = plan(spec, i)
			b.StartTimer()
			heal(b)
			nw.Faults.Tick()
			heal(b)
		}
	}
	run("reheal", strike(phased))
	run("rootkill", strike(rootKill))
}
