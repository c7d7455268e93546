package netsim

import (
	"sync"
	"testing"

	"sensoragg/internal/topology"
)

// TestForkReproducesTemplate: a fork with the template's own seed is
// bit-identical — same items, same RNG streams — while sharing only the
// immutable graph and tree.
func TestForkReproducesTemplate(t *testing.T) {
	g := topology.Grid(6, 6)
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i * 7 % 50)
	}
	tmpl := New(g, values, 100, WithSeed(42))
	fork := tmpl.Fork(42)

	if fork.Graph != tmpl.Graph || fork.Tree != tmpl.Tree {
		t.Error("fork must share the immutable graph and tree")
	}
	if fork.Meter == tmpl.Meter {
		t.Error("fork must get its own meter")
	}
	for i := range tmpl.Nodes {
		a, b := tmpl.Nodes[i], fork.Nodes[i]
		if a == b {
			t.Fatalf("node %d shared between template and fork", i)
		}
		if len(a.Items) != len(b.Items) {
			t.Fatalf("node %d item counts differ", i)
		}
		for j := range a.Items {
			if a.Items[j] != b.Items[j] {
				t.Fatalf("node %d item %d differs: %+v vs %+v", i, j, a.Items[j], b.Items[j])
			}
		}
		if x, y := a.RNG().Uint64(), b.RNG().Uint64(); x != y {
			t.Fatalf("node %d RNG streams diverge: %d vs %d", i, x, y)
		}
	}
}

// TestForkIsolation: mutating a fork's items, scratch, or meter leaves the
// template and sibling forks untouched.
func TestForkIsolation(t *testing.T) {
	g := topology.Line(10)
	values := make([]uint64, 10)
	for i := range values {
		values[i] = uint64(i)
	}
	tmpl := New(g, values, 20, WithSeed(1))
	f1 := tmpl.Fork(1)
	f2 := tmpl.Fork(2)

	f1.Nodes[3].Items[0].Cur = 99
	f1.Nodes[3].Items[0].Active = false
	f1.Nodes[3].Scratch = "dirty"
	f1.Meter.Charge(0, 1, 8)

	if tmpl.Nodes[3].Items[0].Cur != 3 || !tmpl.Nodes[3].Items[0].Active {
		t.Error("template items mutated through fork")
	}
	if f2.Nodes[3].Items[0].Cur != 3 || f2.Nodes[3].Scratch != nil {
		t.Error("sibling fork mutated")
	}
	if tmpl.Meter.TotalBits() != 0 || f2.Meter.TotalBits() != 0 {
		t.Error("meter charge leaked across forks")
	}
	if f1.Meter.TotalBits() != 8 {
		t.Errorf("fork meter = %d bits, want 8", f1.Meter.TotalBits())
	}
}

// TestMeterConcurrentReadDuringCharge: readers (Snapshot, MaxPerNode,
// Since) may run while charges are in flight — the deadline-abandoned-run
// scenario. Run with -race.
func TestMeterConcurrentReadDuringCharge(t *testing.T) {
	m := NewMeter(16)
	var wg sync.WaitGroup
	const iters = 2000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Charge(topology.NodeID(i%16), topology.NodeID((i+1)%16), 3)
				m.Charge(topology.NodeID(i%16), topology.NodeID((i+2)%16), 4)
				m.ChargeTx(topology.NodeID(i%16), 1)
				m.ChargeRx(topology.NodeID((i+3)%16), 1)
			}
		}()
	}
	before := m.Snapshot()
	for i := 0; i < 1000; i++ {
		_ = m.MaxPerNode()
		_ = m.TotalBits()
		_ = m.TotalMessages()
		_ = m.PerNode(topology.NodeID(i % 16))
		_ = m.Since(before)
	}
	wg.Wait()
	if got, want := m.TotalBits(), int64(4*iters*(3+4+1)); got != want {
		t.Errorf("total bits = %d, want %d", got, want)
	}
}
