package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"sensoragg/internal/topology"
)

// dirty pulls a few values from every node's random stream and mutates
// items (readings included), scratch and meter, simulating a run that
// dirtied the network.
func dirty(nw *Network) {
	for _, nd := range nw.Nodes {
		nd.RNG().Uint64()
		nd.RNG().Uint64()
		nd.Scratch = "stale"
		for i := range nd.Items {
			nd.Items[i].Orig++ // an injected reading (the engine's epoch overlay)
			nd.Items[i].Cur = 0
			nd.Items[i].Active = false
		}
	}
	nw.Meter.Charge(0, 1, 99)
}

// TestForkPoolResetMatchesFreshFork is the pooled-fork identity gate: a
// recycled, dirtied network reset for a new seed must be indistinguishable
// from a fresh Fork with that seed — same items, same RNG streams, zeroed
// meter, no fault plan — byte for byte in storage order (node array with
// its PCG states, item array, meter cells), on a tree whose Order is far
// from ID order, with one item per node and with uneven item counts; and
// every fork shares the template's layout instead of building its own.
func TestForkPoolResetMatchesFreshFork(t *testing.T) {
	for _, multi := range []bool{false, true} {
		tmpl := centreNet(t, multi, 1)
		pool := NewForkPool(tmpl)

		run1 := pool.Get(42)
		dirty(run1)
		run1.Meter.ChargeNodeSeq(run1.Tree.Order[5], 17, 3)
		run1.Release()

		recycled := pool.Get(99)
		fresh := tmpl.Fork(99)
		where := fmt.Sprintf("multi=%v", multi)

		if recycled != run1 {
			t.Fatalf("%s: the pool did not recycle the run network", where)
		}
		if recycled.Seed() != fresh.Seed() {
			t.Fatalf("%s: seed %d, want %d", where, recycled.Seed(), fresh.Seed())
		}
		if recycled.Faults != nil {
			t.Fatalf("%s: recycled network kept a fault plan", where)
		}
		if recycled.lay != tmpl.lay || fresh.lay != tmpl.lay || &recycled.Meter.slot[0] != &tmpl.Meter.slot[0] {
			t.Fatalf("%s: a fork built its own layout", where)
		}
		if !reflect.DeepEqual(recycled.items, fresh.items) {
			t.Fatalf("%s: item arrays differ", where)
		}
		if !reflect.DeepEqual(recycled.Meter.cells, fresh.Meter.cells) {
			t.Fatalf("%s: meter cells differ", where)
		}
		for p := range fresh.store {
			a, b := &recycled.store[p], &fresh.store[p]
			if a.ID != b.ID || a.Scratch != nil || !reflect.DeepEqual(a.Items, b.Items) {
				t.Fatalf("%s: slot %d holds node %d (scratch %v), fresh fork node %d", where, p, a.ID, a.Scratch, b.ID)
			}
			sa, _ := a.pcg.MarshalBinary()
			sb, _ := b.pcg.MarshalBinary()
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s: node %d RNG state differs from a fresh fork's", where, a.ID)
			}
		}
		for i := range fresh.Nodes {
			a, b := recycled.Nodes[i], fresh.Nodes[i]
			for k := 0; k < 8; k++ {
				if x, y := a.RNG().Uint64(), b.RNG().Uint64(); x != y {
					t.Fatalf("%s: node %d RNG draw %d: %d vs fresh %d", where, i, k, x, y)
				}
			}
			if recycled.Meter.PerNode(topology.NodeID(i)) != 0 {
				t.Fatalf("%s: node %d meter not zeroed", where, i)
			}
		}
	}
}

func TestForkPoolRecyclesAndGuards(t *testing.T) {
	g := topology.Line(8)
	values := make([]uint64, g.N())
	tmpl := New(g, values, 16, WithSeed(1))
	pool := NewForkPool(tmpl)

	nw := pool.Get(5)
	nw.Release()
	if pool.Free() != 1 {
		t.Fatalf("pool has %d free networks, want 1", pool.Free())
	}
	nw.Release() // double release must not duplicate the entry
	if pool.Free() != 1 {
		t.Fatalf("after double release pool has %d free networks, want 1", pool.Free())
	}
	if got := pool.Get(6); got != nw {
		t.Fatal("pool did not hand the recycled network back")
	}

	// A network from another pool (or none) must be ignored.
	other := tmpl.Fork(7)
	pool.Put(other)
	if pool.Free() != 0 {
		t.Fatalf("foreign network accepted: %d free", pool.Free())
	}
}
