package spantree

import (
	randv1 "math/rand"
	"testing"
	"testing/quick"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// orderedDigest is a deliberately order-revealing combiner used to verify
// that the engines present children in the same order: it hashes the
// sequence (local, child1, child2, ...) non-commutatively. Protocol
// combiners must be order-insensitive, but the *engines* promise
// deterministic child order (tree child order), which this checks.
type orderedDigest struct{}

func (orderedDigest) Local(n *netsim.Node) any {
	return uint64(n.ID) + 1
}

func (orderedDigest) Merge(acc, child any) any {
	a, c := acc.(uint64), child.(uint64)
	return a*1000003 + c
}

func (orderedDigest) AppendPartial(w *bitio.Writer, p any) {
	w.WriteBits(p.(uint64), 64)
}

func (orderedDigest) Decode(pl wire.Payload) (any, error) {
	return pl.Reader().ReadBits(64)
}

// TestEnginesEquivalentProperty: for random connected graphs, both engines
// produce identical convergecast digests (including child order) and
// identical meters.
func TestEnginesEquivalentProperty(t *testing.T) {
	check := func(seed uint16, sizeSeed uint8) bool {
		n := int(sizeSeed)%120 + 2
		var g *topology.Graph
		switch seed % 4 {
		case 0:
			g = topology.Line(n)
		case 1:
			g = topology.Ring(n)
		case 2:
			g = topology.Star(n)
		default:
			g = topology.RandomGeometric(n, 0, uint64(seed))
		}
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(i)
		}
		a := netsim.New(g, values, uint64(n), netsim.WithSeed(uint64(seed)))
		b := netsim.New(g, values, uint64(n), netsim.WithSeed(uint64(seed)))
		ra, err := NewFast(a).Convergecast(orderedDigest{})
		if err != nil {
			return false
		}
		rb, err := NewGoroutine(b).Convergecast(orderedDigest{})
		if err != nil {
			return false
		}
		if ra.(uint64) != rb.(uint64) {
			return false
		}
		for u := 0; u < a.Meter.N(); u++ {
			uid := topology.NodeID(u)
			if a.Meter.SentBitsOf(uid) != b.Meter.SentBitsOf(uid) || a.Meter.RecvBitsOf(uid) != b.Meter.RecvBitsOf(uid) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: randv1.New(randv1.NewSource(9))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConvergecastEqualsFlatFold: for an associative commutative combiner,
// the tree result must equal the flat fold over all nodes regardless of
// topology — the algebraic fact the fast sketch path in agg relies on.
func TestConvergecastEqualsFlatFold(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Line(37), topology.Grid(6, 7), topology.Star(29),
		topology.BinaryTree(31), topology.RandomGeometric(50, 0, 2),
	}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			values := make([]uint64, g.N())
			for i := range values {
				values[i] = uint64(i * 13 % 97)
			}
			nw := netsim.New(g, values, 100)
			out, err := NewFast(nw).Convergecast(idCombiner{})
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for i := 0; i < g.N(); i++ {
				want += uint64(i)
			}
			if out.(uint64) != want {
				t.Errorf("tree fold %d != flat fold %d", out, want)
			}
		})
	}
}

// TestBroadcastConvergecastRoundTripCost verifies the Fact 2.1 cost
// identity: a payload of b bits broadcast plus a fixed-size convergecast of
// c bits charges every node at most (deg)·(b+c) bits.
func TestBroadcastConvergecastRoundTripCost(t *testing.T) {
	g := topology.Grid(8, 8)
	values := make([]uint64, g.N())
	nw := netsim.New(g, values, 100)
	ops := NewFast(nw)

	const payloadBits = 10
	w := bitio.NewWriter(payloadBits)
	w.WriteBits(0x3ff, payloadBits)
	ops.Broadcast(wire.FromWriter(w), nil)
	if _, err := ops.Convergecast(orderedDigest{}); err != nil {
		t.Fatal(err)
	}
	maxDeg := nw.Tree.MaxDegree()
	bound := int64(maxDeg * (payloadBits + 64))
	for u := 0; u < nw.Meter.N(); u++ {
		if got := nw.Meter.PerNode(topology.NodeID(u)); got > bound {
			t.Errorf("node %d: %d bits > bound %d (deg %d)", u, got, bound, maxDeg)
		}
	}
}
