package netsim

import (
	"reflect"
	"testing"

	"sensoragg/internal/topology"
)

// centreNet builds a network over a grid rooted at its centre, whose tree
// Order is far from ID order, with one item per node or, with multi, three
// on every fourth node and none on every ninth.
func centreNet(t *testing.T, multi bool, seed uint64) *Network {
	t.Helper()
	g := topology.Grid(9, 13)
	items := make([][]uint64, g.N())
	for i := range items {
		items[i] = []uint64{uint64(i * 11 % 200)}
		if multi && i%4 == 3 {
			items[i] = append(items[i], uint64(i%200), 199)
		}
		if multi && i%9 == 8 {
			items[i] = nil
		}
	}
	nw := NewMulti(g, items, 200, WithRoot(4*13+6), WithSeed(seed))
	inOrder := true
	for p, id := range nw.Tree.Order {
		inOrder = inOrder && int(id) == p
	}
	if inOrder {
		t.Fatal("the tree's Order is ID order: the test would prove nothing")
	}
	return nw
}

// TestNodesStayAddressedByID: storage follows the tree, addressing does not.
// Nodes[id] is node id and lives at its slot, its items at its slot's run of
// the backing array, its counters in its slot's meter cell; AllItems comes
// back in ID order.
func TestNodesStayAddressedByID(t *testing.T) {
	for _, multi := range []bool{false, true} {
		nw := centreNet(t, multi, 3)
		var want []uint64
		for id, nd := range nw.Nodes {
			if nd.ID != topology.NodeID(id) {
				t.Fatalf("Nodes[%d].ID = %d", id, nd.ID)
			}
			for _, it := range nd.Items {
				want = append(want, it.Orig)
			}
		}
		off := 0
		for p, id := range nw.Tree.Order {
			nd := nw.Nodes[id]
			if nd != &nw.store[p] || nw.Meter.cell(id) != &nw.Meter.cells[p] {
				t.Fatalf("node %d is not stored at slot %d", id, p)
			}
			if len(nd.Items) > 0 && &nd.Items[0] != &nw.items[off] {
				t.Fatalf("node %d's items do not start at backing index %d", id, off)
			}
			off += len(nd.Items)
		}
		if got := nw.AllItems(); !reflect.DeepEqual(got, want) || nw.NumItems() != len(want) {
			t.Fatalf("multi=%v: AllItems %v (NumItems %d), want %v", multi, got, nw.NumItems(), want)
		}
	}
}

// TestNewFromTreeRejectsNonPermutationOrder: storage is laid out by
// tree.Order, so an Order that repeats or misses a node is a programming
// error, caught at construction like the other argument checks.
func TestNewFromTreeRejectsNonPermutationOrder(t *testing.T) {
	g := topology.Grid(3, 4)
	items := make([][]uint64, g.N())
	for _, tc := range []struct {
		name  string
		order func([]topology.NodeID) []topology.NodeID
	}{
		{"repeat", func(o []topology.NodeID) []topology.NodeID { o[3] = o[2]; return o }},
		{"out of range", func(o []topology.NodeID) []topology.NodeID { o[1] = topology.NodeID(len(o)); return o }},
		{"negative", func(o []topology.NodeID) []topology.NodeID { o[1] = -1; return o }},
		{"short", func(o []topology.NodeID) []topology.NodeID { return o[:len(o)-1] }},
	} {
		tree := *BuildTree(g, 0, DefaultMaxChildren)
		tree.Order = tc.order(append([]topology.NodeID(nil), tree.Order...))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewFromTree accepted a non-permutation Order", tc.name)
				}
			}()
			NewFromTree(g, &tree, items, 1, 1)
		}()
	}
}

// BenchmarkForkReset is the run network's own layer benchmark: one pooled
// Get (reset into place), AllItems (the engine's ground-truth copy) and
// Release per iteration on bignet's 65,536-node grid — the N-proportional
// host cost every job pays before its first sweep.
func BenchmarkForkReset(b *testing.B) {
	g := topology.Grid(256, 256)
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i % 1000)
	}
	pool := NewForkPool(New(g, values, 1000, WithSeed(1)))
	pool.Get(1).Release() // the first Get forks; the loop measures resets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := pool.Get(uint64(i))
		if len(nw.AllItems()) != g.N() {
			b.Fatal("AllItems lost items")
		}
		nw.Release()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/node")
}
