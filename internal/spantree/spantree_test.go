package spantree

import (
	"sync/atomic"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

func testNetwork(t *testing.T, g *topology.Graph) *netsim.Network {
	t.Helper()
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i)
	}
	return netsim.New(g, values, uint64(g.N()), netsim.WithSeed(4))
}

// idCombiner sums node IDs — a trivial aggregate with gamma encoding, used
// to exercise the engines directly.
type idCombiner struct{}

func (idCombiner) Local(n *netsim.Node) any { return uint64(n.ID) }
func (idCombiner) Merge(acc, child any) any { return acc.(uint64) + child.(uint64) }
func (idCombiner) AppendPartial(w *bitio.Writer, p any) {
	w.WriteGamma(p.(uint64))
}
func (idCombiner) Decode(pl wire.Payload) (any, error) {
	return pl.Reader().ReadGamma()
}

func TestConvergecastSumsAllNodes(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Line(10), topology.Grid(4, 5), topology.Star(12)} {
		nw := testNetwork(t, g)
		want := uint64(g.N() * (g.N() - 1) / 2)
		for name, ops := range map[string]Ops{"fast": NewFast(nw), "goroutine": NewGoroutine(nw)} {
			out, err := ops.Convergecast(idCombiner{})
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, name, err)
			}
			if out.(uint64) != want {
				t.Errorf("%s/%s: sum = %d, want %d", g.Name, name, out, want)
			}
		}
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	g := topology.RandomGeometric(100, 0, 8)
	nw := testNetwork(t, g)
	for name, ops := range map[string]Ops{"fast": NewFast(nw), "goroutine": NewGoroutine(nw)} {
		var count int64
		var w bitio.Writer
		w.WriteBits(0b1011, 4)
		ops.Broadcast(wire.FromWriter(&w), func(n *netsim.Node, p wire.Payload) {
			if p.Bits() != 4 {
				t.Errorf("node %d payload %d bits", n.ID, p.Bits())
			}
			atomic.AddInt64(&count, 1)
		})
		if count != int64(g.N()) {
			t.Errorf("%s: broadcast reached %d of %d nodes", name, count, g.N())
		}
	}
}

func TestBroadcastChargesEveryEdge(t *testing.T) {
	g := topology.Line(10)
	nw := testNetwork(t, g)
	ops := NewFast(nw)
	var w bitio.Writer
	w.WriteBits(0xff, 8)
	before := nw.Meter.Snapshot()
	ops.Broadcast(wire.FromWriter(&w), nil)
	d := nw.Meter.Since(before)
	if d.TotalBits != 8*9 {
		t.Errorf("broadcast bits = %d, want %d", d.TotalBits, 8*9)
	}
	// Interior line nodes relay: recv 8 + send 8 = 16.
	if d.MaxPerNode != 16 {
		t.Errorf("max per node = %d, want 16", d.MaxPerNode)
	}
}

func TestFaultyDuplication(t *testing.T) {
	// With Dup=1 every convergecast message is merged twice: a SUM-like
	// combiner doubles per hop, while an idempotent MAX would not care.
	g := topology.Line(3) // 0-1-2, root 0
	nw := testNetwork(t, g)
	nw.Faults = faults.New(faults.Spec{Dup: 1}, nw.N(), nw.Root(), 4)
	ops := NewFast(nw)
	out, err := ops.Convergecast(idCombiner{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 partial (2) merged twice at node 1 → 1+4=5; node 1 partial
	// merged twice at root → 0+10=10.
	if out.(uint64) != 10 {
		t.Errorf("duplicated sum = %d, want 10", out)
	}
}

func TestFaultyDrop(t *testing.T) {
	g := topology.Star(5)
	nw := testNetwork(t, g)
	nw.Faults = faults.New(faults.Spec{Drop: 1}, nw.N(), nw.Root(), 4)
	ops := NewFast(nw)
	out, err := ops.Convergecast(idCombiner{})
	if err != nil {
		t.Fatal(err)
	}
	// Every leaf partial dropped: only the root's own value remains.
	if out.(uint64) != 0 {
		t.Errorf("all-drop sum = %d, want 0", out)
	}
}

func TestBuildBFSMatchesCentralized(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Line(30),
		topology.Grid(6, 6),
		topology.Ring(25),
		topology.RandomGeometric(120, 0, 13),
	}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			nw := testNetwork(t, g)
			res, err := BuildBFS(nw)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Tree.Validate(); err != nil {
				t.Fatalf("constructed tree invalid: %v", err)
			}
			want := topology.BFSTree(g, 0)
			for u := 0; u < g.N(); u++ {
				if res.Tree.Depth[u] != want.Depth[u] {
					t.Errorf("node %d depth %d, want %d", u, res.Tree.Depth[u], want.Depth[u])
				}
			}
			if res.Comm.TotalBits == 0 {
				t.Error("construction charged no bits")
			}
			if res.Rounds < want.Height()+1 {
				t.Errorf("rounds %d below tree height %d", res.Rounds, want.Height())
			}
		})
	}
}

func TestBuildBFSPerNodeCost(t *testing.T) {
	// Per-node construction cost is O(deg · log diameter): on a line each
	// node exchanges O(log n) bits with 2 neighbours.
	g := topology.Line(256)
	nw := testNetwork(t, g)
	res, err := BuildBFS(nw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.MaxPerNode > 200 {
		t.Errorf("line build max per node = %d bits, want small", res.Comm.MaxPerNode)
	}
}
