//go:build !race

package agg

import (
	"runtime"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// The zero-allocation claim, asserted directly: on a warm network every
// Fact 2.1 query — broadcast plus vector convergecast — performs zero
// steady-state heap allocations through the sequential fast engine. The
// grid has 400 nodes, so counts and sums lie above the runtime's
// small-integer cache: nothing is boxed anywhere, root partial included.
//
// The file is excluded under -race: the race runtime instruments
// allocations and the count stops being meaningful.

// warmEngine builds the sequential fast engine over a 400-node grid.
func warmEngine() *spantree.FastEngine {
	g := topology.Grid(20, 20)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	ops.SetWorkers(1)
	return ops
}

// requireZeroAllocs runs op once to warm the scratch, then fails the test
// if a warm op allocates.
func requireZeroAllocs(t *testing.T, what string, op func()) {
	t.Helper()
	op()
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Errorf("warm %s: %.1f allocs/op, want 0", what, allocs)
	}
}

// TestPooledCountConvergecastZeroAllocs: a bare COUNT convergecast on the
// vector ring, the root vector returned unboxed.
func TestPooledCountConvergecastZeroAllocs(t *testing.T) {
	ops := warmEngine()
	comb := &countCombiner{domain: core.Linear, pred: wire.True()}
	requireZeroAllocs(t, "COUNT convergecast", func() {
		p, err := ops.ConvergecastVec(comb)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != uint64(ops.Network().N()) {
			t.Fatalf("count %d, want %d", p[0], ops.Network().N())
		}
	})
}

// TestWarmCountQueryAllocs: the full COUNT and SUM queries — the broadcast
// borrows the Net's reusable writer.
func TestWarmCountQueryAllocs(t *testing.T) {
	net := NewNet(warmEngine())
	requireZeroAllocs(t, "COUNT query", func() { net.Count(core.Linear, wire.True()) })
	requireZeroAllocs(t, "SUM query", func() { net.Sum(core.Linear, wire.True()) })
	requireZeroAllocs(t, "MIN/MAX query", func() { net.MinMax(core.Linear) })
}

// TestWarmCountVecQueryAllocs bounds the batched probe plane's hot path: a
// warm CountVec sweep with a reused probe set and destination buffer keeps
// every partial on the run network's two-level vector ring and
// materializes no payload.
func TestWarmCountVecQueryAllocs(t *testing.T) {
	net := NewNet(warmEngine())
	preds := []wire.Pred{wire.Less(13), wire.Less(600), wire.Less(1500), wire.True()}
	dst := net.CountVec(core.Linear, preds, nil)
	requireZeroAllocs(t, "CountVec query", func() { dst = net.CountVec(core.Linear, preds, dst) })
}

// TestWarmMultiAggregateAllocs: the fused COUNT+SUM+MIN+MAX sweep.
func TestWarmMultiAggregateAllocs(t *testing.T) {
	net := NewNet(warmEngine())
	requireZeroAllocs(t, "fused sweep", func() { net.MultiAggregate(core.Linear, wire.True()) })
}

// TestWarmApxCountAllocs pins the fast APX COUNT path: the three instances
// share one sketch, so a warm call allocates the returned estimates slice
// and that sketch's header and registers — nothing per instance.
func TestWarmApxCountAllocs(t *testing.T) {
	net := NewNet(warmEngine())
	op := func() { net.ApxCountRep(core.Linear, wire.True(), 3) }
	op()
	if allocs := testing.AllocsPerRun(200, op); allocs != 3 {
		t.Errorf("warm ApxCountRep(Linear, TRUE, 3): %.1f allocs/op, want 3 (estimates, sketch, registers)", allocs)
	}
}

// TestWarmTeamOpsAllocs gates the production schedule, which
// testing.AllocsPerRun cannot see: it pins GOMAXPROCS to 1, so no helper
// ever runs a share. Here the process keeps its GOMAXPROCS (raised to 2
// when lower) and the count is the runtime's malloc delta over the whole
// process, averaged the way AllocsPerRun averages (integer division): a
// warm broadcast and a warm CountVec on a team of 2 and of 4 — partition
// in place, helpers resident — allocate nothing, on the caller or on a
// helper. (A helper that parks may draw a sudog or a timer slot from the
// runtime's caches, a few times per thousand operations.)
func TestWarmTeamOpsAllocs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	g := topology.Grid(64, 64)
	maxX := uint64(4 * g.N())
	nw := netsim.New(g, workload.Generate(workload.Uniform, g.N(), maxX, 1), maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	net := NewNet(ops)
	preds := []wire.Pred{wire.Less(13), wire.Less(600), wire.Less(1500), wire.True()}
	var dst []uint64
	pl := wire.Payload{}
	for _, team := range []int{2, 4} {
		ops.SetWorkers(team)
		for name, op := range map[string]func(){
			"broadcast": func() { ops.Broadcast(pl, nil) },
			"CountVec":  func() { dst = net.CountVec(core.Linear, preds, dst) },
		} {
			for range 3 { // warm the slots, the partition and the helpers
				op()
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				op()
			}
			runtime.ReadMemStats(&after)
			if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
				t.Errorf("warm %s on a team of %d: %d allocs/op, want 0", name, team, allocs)
			}
		}
	}
}
