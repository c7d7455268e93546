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

// TestPooledCountConvergecastZeroAllocs is the zero-allocation claim from
// the arena/pool work, asserted directly: on a warm network, a pooled
// COUNT convergecast through the sequential fast engine performs zero
// steady-state heap allocations. (N stays below 256 so boxed partial
// counts hit the runtime's small-integer cache — larger networks still
// allocate only for the boxed `any` partials, never for payloads.)
//
// The file is excluded under -race: the race runtime instruments
// allocations and the count stops being meaningful.
func TestPooledCountConvergecastZeroAllocs(t *testing.T) {
	g := topology.Grid(7, 7)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	ops.SetWorkers(1)
	var comb spantree.Combiner = countCombiner{domain: core.Linear, pred: wire.True()}

	// Warm the engine scratch and arena.
	if _, err := ops.Convergecast(comb); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ops.Convergecast(comb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm pooled COUNT convergecast: %.1f allocs/op, want 0", allocs)
	}
}

// TestWarmCountQueryAllocs bounds the full COUNT query (broadcast +
// convergecast) on a warm net: the broadcast borrows the Net's reusable
// writer, so the whole query should stay allocation-free too.
func TestWarmCountQueryAllocs(t *testing.T) {
	g := topology.Grid(7, 7)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	ops.SetWorkers(1)
	net := NewNet(ops)
	net.Count(core.Linear, wire.True())

	allocs := testing.AllocsPerRun(200, func() {
		net.Count(core.Linear, wire.True())
	})
	if allocs != 0 {
		t.Errorf("warm COUNT query: %.1f allocs/op, want 0", allocs)
	}
}

// TestWarmCountVecQueryAllocs bounds the batched probe plane's hot path: a
// warm CountVec sweep with a reused probe set and destination buffer keeps
// every partial on the run network's two-level vector ring and
// materializes no payload. The single remaining allocation is the root partial's
// interface boxing at the Ops.Convergecast boundary — the same one the
// scalar path pays.
func TestWarmCountVecQueryAllocs(t *testing.T) {
	g := topology.Grid(7, 7)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	ops.SetWorkers(1)
	net := NewNet(ops)
	preds := []wire.Pred{wire.Less(13), wire.Less(60), wire.Less(150), wire.True()}
	dst := net.CountVec(core.Linear, preds, nil)

	allocs := testing.AllocsPerRun(200, func() {
		dst = net.CountVec(core.Linear, preds, dst)
	})
	if allocs > 1 {
		t.Errorf("warm CountVec query: %.1f allocs/op, want <= 1 (root boxing only)", allocs)
	}
}

// TestWarmMultiAggregateAllocs: the fused COUNT+SUM+MIN+MAX sweep has the
// same bound — vector ring partials, no payloads, one root boxing.
func TestWarmMultiAggregateAllocs(t *testing.T) {
	g := topology.Grid(7, 7)
	maxX := uint64(4 * g.N())
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := spantree.NewFast(nw)
	ops.SetWorkers(1)
	net := NewNet(ops)
	net.MultiAggregate(core.Linear, wire.True())

	allocs := testing.AllocsPerRun(200, func() {
		net.MultiAggregate(core.Linear, wire.True())
	})
	if allocs > 1 {
		t.Errorf("warm fused sweep: %.1f allocs/op, want <= 1 (root boxing only)", allocs)
	}
}
