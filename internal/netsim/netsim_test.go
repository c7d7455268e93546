package netsim

import (
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

func values(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i % 100)
	}
	return v
}

func TestNewNetworkBasics(t *testing.T) {
	g := topology.Grid(4, 4)
	nw := New(g, values(16), 1000)
	if nw.N() != 16 || nw.NumItems() != 16 {
		t.Fatalf("N=%d items=%d", nw.N(), nw.NumItems())
	}
	if nw.Root() != 0 {
		t.Errorf("root = %d", nw.Root())
	}
	if nw.ValueWidth != bitio.WidthOfRange(1000) {
		t.Errorf("ValueWidth = %d", nw.ValueWidth)
	}
	if err := nw.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	all := nw.AllItems()
	if len(all) != 16 || all[5] != 5 {
		t.Errorf("AllItems = %v", all)
	}
}

func TestNewValidation(t *testing.T) {
	g := topology.Line(4)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("wrong length", func() { New(g, values(3), 1000) })
	mustPanic("value over maxX", func() { New(g, []uint64{1, 2, 3, 2000}, 1000) })
}

func TestMultiItems(t *testing.T) {
	g := topology.Line(3)
	nw := NewMulti(g, [][]uint64{{1, 2}, {}, {3}}, 10)
	if nw.NumItems() != 3 {
		t.Errorf("NumItems = %d, want 3", nw.NumItems())
	}
}

func TestResetItems(t *testing.T) {
	nw := New(topology.Line(3), []uint64{5, 6, 7}, 10)
	nw.Nodes[1].Items[0].Cur = 99
	nw.Nodes[1].Items[0].Active = false
	nw.ResetItems()
	it := nw.Nodes[1].Items[0]
	if it.Cur != 6 || !it.Active {
		t.Errorf("reset failed: %+v", it)
	}
}

func TestNodeRNGDeterministicPerSeed(t *testing.T) {
	a := New(topology.Line(4), values(4), 100, WithSeed(5))
	b := New(topology.Line(4), values(4), 100, WithSeed(5))
	c := New(topology.Line(4), values(4), 100, WithSeed(6))
	if a.Nodes[2].RNG().Uint64() != b.Nodes[2].RNG().Uint64() {
		t.Error("same seed gives different node streams")
	}
	if a.Nodes[2].RNG().Uint64() == c.Nodes[2].RNG().Uint64() {
		t.Error("different seeds give identical node streams (unlikely)")
	}
	if a.Nodes[1].RNG().Uint64() == a.Nodes[3].RNG().Uint64() {
		t.Error("different nodes share a stream (unlikely)")
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter(3)
	m.Charge(0, 1, 10)
	m.Charge(1, 2, 5)
	m.Charge(2, 1, 7)
	if m.MaxPerNode() != 10+5+7 { // node 1: sent 5, recv 10+7
		t.Errorf("MaxPerNode = %d, want 22", m.MaxPerNode())
	}
	if m.TotalBits() != 22 {
		t.Errorf("TotalBits = %d", m.TotalBits())
	}
	if m.TotalMessages() != 3 {
		t.Errorf("TotalMessages = %d", m.TotalMessages())
	}
	if m.PerNode(0) != 10 {
		t.Errorf("PerNode(0) = %d", m.PerNode(0))
	}
	snap := m.Snapshot()
	m.Charge(0, 2, 4)
	d := m.Since(snap)
	if d.MaxPerNode != 4 || d.TotalBits != 4 || d.Messages != 1 {
		t.Errorf("Since = %+v", d)
	}
	m.Reset()
	if m.TotalBits() != 0 || m.MaxPerNode() != 0 {
		t.Error("reset failed")
	}
}

// TestZeroMeterSnapshotIsFree: every engine job snapshots its freshly reset
// run meter, so that snapshot must cost no N-sized copy — and Since must
// still read it as zeros.
func TestZeroMeterSnapshotIsFree(t *testing.T) {
	m := NewMeter(4096)
	if allocs := testing.AllocsPerRun(20, func() { m.Snapshot() }); allocs != 0 {
		t.Errorf("snapshot of a zero meter allocates %v times", allocs)
	}
	snap := m.Snapshot()
	m.Charge(7, 9, 12)
	m.ChargeEdgeSeq(9, 7, 0, 3) // messages without bits
	if d := m.Since(snap); d != (Delta{MaxPerNode: 12, TotalBits: 12, Messages: 4}) {
		t.Errorf("Since a zero snapshot = %+v", d)
	}
	snap = m.Snapshot()
	m.Charge(7, 9, 5)
	if d := m.Since(snap); d != (Delta{MaxPerNode: 5, TotalBits: 5, Messages: 1}) {
		t.Errorf("Since a nonzero snapshot = %+v", d)
	}
}

// flood is a test handler: root sends a token to all neighbours; every node
// forwards the first time it hears it.
type flood struct {
	heard []bool
}

func (f *flood) Step(n *Node, round int, inbox []GraphMsg) []GraphMsg {
	fire := false
	if round == 0 && n.ID == 0 {
		fire = true
	}
	if len(inbox) > 0 && !f.heard[n.ID] {
		fire = true
	}
	if len(inbox) > 0 {
		f.heard[n.ID] = true
	}
	if !fire {
		return nil
	}
	f.heard[n.ID] = true
	var w bitio.Writer
	w.WriteBits(1, 1)
	pl := wire.FromWriter(&w)
	var out []GraphMsg
	for _, nbr := range adjOf(n) {
		out = append(out, GraphMsg{From: n.ID, To: nbr, Payload: pl})
	}
	return out
}

var testGraph *topology.Graph

func adjOf(n *Node) []topology.NodeID { return testGraph.Adj[n.ID] }

func TestRunRoundsFlood(t *testing.T) {
	testGraph = topology.Grid(5, 5)
	nw := New(testGraph, values(25), 100)
	f := &flood{heard: make([]bool, 25)}
	res := RunRounds(nw, f, 100)
	for i, h := range f.heard {
		if !h {
			t.Errorf("node %d never heard the flood", i)
		}
	}
	// Grid 5x5 from corner: eccentricity 8; flood quiesces well before 100.
	if res.Rounds >= 100 {
		t.Errorf("flood did not quiesce: %d rounds", res.Rounds)
	}
	if nw.Meter.TotalBits() != res.Messages {
		t.Errorf("1-bit messages: total bits %d != messages %d", nw.Meter.TotalBits(), res.Messages)
	}
}

func TestRunRoundsRejectsNonNeighbour(t *testing.T) {
	testGraph = topology.Line(3)
	nw := New(testGraph, values(3), 100)
	bad := RoundHandlerFunc(func(n *Node, round int, inbox []GraphMsg) []GraphMsg {
		if n.ID == 0 && round == 0 {
			return []GraphMsg{{From: 0, To: 2, Payload: wire.Empty}}
		}
		return nil
	})
	defer func() {
		if recover() == nil {
			t.Error("non-neighbour send should panic")
		}
	}()
	RunRounds(nw, bad, 2)
}

func TestRunRoundsRejectsForgedSender(t *testing.T) {
	testGraph = topology.Line(3)
	nw := New(testGraph, values(3), 100)
	bad := RoundHandlerFunc(func(n *Node, round int, inbox []GraphMsg) []GraphMsg {
		if n.ID == 0 && round == 0 {
			return []GraphMsg{{From: 1, To: 0, Payload: wire.Empty}}
		}
		return nil
	})
	defer func() {
		if recover() == nil {
			t.Error("forged sender should panic")
		}
	}()
	RunRounds(nw, bad, 2)
}

// TestItemKeysFollowAllItems: an item's key is its index in AllItems, on
// one-item and multi-item networks alike, and forks share the keys.
func TestItemKeysFollowAllItems(t *testing.T) {
	g := topology.Grid(4, 4)
	multi := make([][]uint64, g.N())
	for i := range multi {
		multi[i] = make([]uint64, i%3) // nodes with 0, 1 and 2 items
	}
	for name, nw := range map[string]*Network{
		"single": New(g, values(g.N()), 100, WithRoot(5)),
		"multi":  NewMulti(g, multi, 100, WithRoot(5)),
	} {
		for _, x := range []*Network{nw, nw.Fork(7)} {
			next := uint64(0)
			for _, nd := range x.Nodes {
				for i := range nd.Items {
					if got := x.ItemKey(nd.ID, i); got != next {
						t.Fatalf("%s: node %d item %d has key %d, want %d", name, nd.ID, i, got, next)
					}
					next++
				}
			}
			if next != uint64(len(x.AllItems())) {
				t.Fatalf("%s: %d keys for %d items", name, next, len(x.AllItems()))
			}
		}
	}
}
