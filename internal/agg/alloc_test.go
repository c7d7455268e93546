//go:build !race

package agg

import (
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
