package netsim

// Reference for the storage layout: NewFromTree, resetForRun, AllItems and
// Meter as they were while nodes, items and meter cells were stored in
// node-ID order, kept verbatim apart from renames (and, on the network, the
// three fields the layout added, filled with the identity layout) so the
// layout oracles can hold the tree-ordered storage to them:
// TestMeterMatchesRef below drives refMeter and a tree-laid-out Meter
// through the same charge sequences, and layout_oracle_test.go runs every
// sweep on a network built by RefNewFromTree next to one built by
// NewFromTree.

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/topology"
)

// RefNewFromTree is NewFromTree with nodes, items and meter cells in ID
// order: the identity layout, whose meter is NewMeter's.
func RefNewFromTree(g *topology.Graph, tree *topology.Tree, items [][]uint64, maxX uint64, seed uint64) *Network {
	if tree.N() != g.N() {
		panic(fmt.Sprintf("netsim: tree has %d nodes, graph has %d", tree.N(), g.N()))
	}
	if len(items) != g.N() {
		panic(fmt.Sprintf("netsim: %d item lists for %d nodes", len(items), g.N()))
	}
	nw := &Network{
		Graph: g,
		Tree:  tree,
		Nodes: make([]*Node, g.N()),
		Meter: NewMeter(g.N()),
		MaxX:  maxX,
		// Width covers maxX+1: predicate thresholds range over [0, X+1]
		// ("< X+1" selects everything), one more value than the items.
		ValueWidth: bitio.WidthOfRange(maxX + 1),
		seed:       seed,
	}
	total := 0
	for i := range items {
		total += len(items[i])
	}
	nodes := make([]Node, g.N())
	backing := make([]Item, 0, total)
	firstItem := make([]uint64, g.N())
	for i := range nodes {
		firstItem[i] = uint64(len(backing))
		nd := &nodes[i]
		nd.ID = topology.NodeID(i)
		nd.pcg = *rand.NewPCG(seed, nodeStream(i))
		nd.rng = rand.New(&nd.pcg)
		start := len(backing)
		for _, v := range items[i] {
			if v > maxX {
				panic(fmt.Sprintf("netsim: item %d at node %d exceeds maxX %d", v, i, maxX))
			}
			backing = append(backing, Item{Orig: v, Cur: v, Active: true})
		}
		nd.Items = backing[start:len(backing):len(backing)]
		nw.Nodes[i] = nd
	}
	// The identity layout, so the network's own item passes (ResetItems,
	// NumItems, ItemKey) work on it too. Its key table is set even when
	// every node holds one item: AllItems then takes the walk by node.
	nw.store, nw.items, nw.lay = nodes, backing, &layout{firstItem: firstItem}
	return nw
}

// RefResetForRun is resetForRun walking the nodes in ID order.
func (nw *Network) RefResetForRun(seed uint64) {
	nw.seed = seed
	nw.Faults = nil
	nw.Meter.Reset()
	for i, nd := range nw.Nodes {
		nd.Scratch = nil
		nd.ResetItems()
		nd.pcg.Seed(seed, nodeStream(i))
	}
}

// RefAllItems is AllItems walking the nodes in ID order.
func (nw *Network) RefAllItems() []uint64 {
	out := make([]uint64, 0, nw.NumItems())
	for _, nd := range nw.Nodes {
		for _, it := range nd.Items {
			out = append(out, it.Orig)
		}
	}
	return out
}

// refMeter is Meter with node u's counters in cells[u].
type refMeter struct {
	cells []refCell
}

type refCell struct {
	sent int64
	recv int64
	msgs int64
}

func newRefMeter(n int) *refMeter {
	return &refMeter{cells: make([]refCell, n)}
}

func (m *refMeter) Charge(from, to topology.NodeID, bits int) {
	atomic.AddInt64(&m.cells[from].sent, int64(bits))
	atomic.AddInt64(&m.cells[to].recv, int64(bits))
	atomic.AddInt64(&m.cells[from].msgs, 1)
}

func (m *refMeter) ChargeTx(from topology.NodeID, bits int) {
	atomic.AddInt64(&m.cells[from].sent, int64(bits))
	atomic.AddInt64(&m.cells[from].msgs, 1)
}

func (m *refMeter) ChargeSendOnlySeq(from topology.NodeID, bits, copies int) {
	c := &m.cells[from]
	c.sent += int64(bits) * int64(copies)
	c.msgs += int64(copies)
}

func (m *refMeter) ChargeRxSeq(to topology.NodeID, bits int) {
	m.cells[to].recv += int64(bits)
}

func (m *refMeter) ChargeNodeSeq(u topology.NodeID, sentBits, recvBits int) {
	c := &m.cells[u]
	if sentBits >= 0 {
		c.sent += int64(sentBits)
		c.msgs++
	}
	if recvBits > 0 {
		c.recv += int64(recvBits)
	}
}

func (m *refMeter) ChargeBroadcastSeq(bits int, fanout []int32, root topology.NodeID, lo, hi int) {
	b := int64(bits)
	for i := lo; i < hi; i++ {
		c := &m.cells[i]
		if k := int64(fanout[i]); k > 0 {
			c.sent += b * k
			c.msgs += k
		}
		if topology.NodeID(i) != root {
			c.recv += b
		}
	}
}

func (m *refMeter) ChargeEdgeSeq(from, to topology.NodeID, bits, msgs int64) {
	c := &m.cells[from]
	c.sent += bits
	c.msgs += msgs
	m.cells[to].recv += bits
}

type refLedger []refCell

func (m *refMeter) Ledger() refLedger { return append(refLedger(nil), m.cells...) }

func (m *refMeter) ChargedSince(l refLedger) refLedger {
	for i, c := range m.cells {
		l[i] = refCell{sent: c.sent - l[i].sent, recv: c.recv - l[i].recv, msgs: c.msgs - l[i].msgs}
	}
	return l
}

func (m *refMeter) Replay(l refLedger) {
	for i, d := range l {
		c := &m.cells[i]
		c.sent += d.sent
		c.recv += d.recv
		c.msgs += d.msgs
	}
}

func (m *refMeter) ChargeRx(to topology.NodeID, bits int) {
	atomic.AddInt64(&m.cells[to].recv, int64(bits))
}

func (m *refMeter) Reset() {
	clear(m.cells)
}

func (m *refMeter) SentBitsOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cells[u].sent) }

func (m *refMeter) RecvBitsOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cells[u].recv) }

func (m *refMeter) MessagesOf(u topology.NodeID) int64 { return atomic.LoadInt64(&m.cells[u].msgs) }

func (m *refMeter) MaxPerNode() int64 {
	var max int64
	for i := range m.cells {
		if v := atomic.LoadInt64(&m.cells[i].sent) + atomic.LoadInt64(&m.cells[i].recv); v > max {
			max = v
		}
	}
	return max
}

func (m *refMeter) TotalBits() int64 {
	var total int64
	for i := range m.cells {
		total += atomic.LoadInt64(&m.cells[i].sent)
	}
	return total
}

func (m *refMeter) TotalMessages() int64 {
	var total int64
	for i := range m.cells {
		total += atomic.LoadInt64(&m.cells[i].msgs)
	}
	return total
}

func (m *refMeter) PerNode(u topology.NodeID) int64 {
	return atomic.LoadInt64(&m.cells[u].sent) + atomic.LoadInt64(&m.cells[u].recv)
}

type refSnapshot struct {
	perNode   []int64
	totalBits int64
	totalMsgs int64
}

func (m *refMeter) Snapshot() refSnapshot {
	per := make([]int64, len(m.cells))
	var bits int64
	for i := range per {
		s := atomic.LoadInt64(&m.cells[i].sent)
		per[i] = s + atomic.LoadInt64(&m.cells[i].recv)
		bits += s
	}
	return refSnapshot{perNode: per, totalBits: bits, totalMsgs: m.TotalMessages()}
}

func (m *refMeter) Since(s refSnapshot) Delta {
	var d Delta
	for i := range m.cells {
		if v := atomic.LoadInt64(&m.cells[i].sent) + atomic.LoadInt64(&m.cells[i].recv) - s.perNode[i]; v > d.MaxPerNode {
			d.MaxPerNode = v
		}
	}
	d.TotalBits = m.TotalBits() - s.totalBits
	d.Messages = m.TotalMessages() - s.totalMsgs
	return d
}

// TestMeterMatchesRef drives a meter laid out in a tree's order and the
// ID-order reference through the same generated charge sequences — every
// charge path, resets, ledgers replayed onto a second meter of the same
// layout, snapshots — and requires the same counters for every node and the
// same Since and MaxPerNode.
func TestMeterMatchesRef(t *testing.T) {
	trees := []*topology.Tree{
		BuildTree(topology.Grid(9, 11), 50, DefaultMaxChildren), // centre root
		BuildTree(topology.Line(40), 20, DefaultMaxChildren),
		BuildTree(topology.Barbell(30), 0, DefaultMaxChildren),
	}
	for ti, tree := range trees {
		n := tree.N()
		lay := newTreeLayout(t, tree)
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(ti)))
			m, ref := newMeter(lay), newRefMeter(n)
			m2, ref2 := newMeter(lay), newRefMeter(n)
			node := func() topology.NodeID { return topology.NodeID(rng.IntN(n)) }
			snap, refSnap := m.Snapshot(), ref.Snapshot()
			led, refLed := m.Ledger(), ref.Ledger()
			// The broadcast wave's child starts by slot for m, its fanout
			// by ID for ref.
			_, first, _ := tree.CSR()
			refFanout := make([]int32, n)
			for _, u := range tree.Order {
				refFanout[u] = int32(len(tree.Children(u)))
			}
			for step := 0; step < 300; step++ {
				u, v, bits := node(), node(), rng.IntN(200)
				switch rng.IntN(12) {
				case 0:
					m.Charge(u, v, bits)
					ref.Charge(u, v, bits)
				case 1:
					m.Charge(v, u, bits)
					ref.Charge(v, u, bits)
				case 2:
					m.ChargeTx(u, bits)
					ref.ChargeTx(u, bits)
				case 3:
					m.ChargeRx(u, bits)
					ref.ChargeRx(u, bits)
				case 4:
					k := rng.IntN(4)
					m.ChargeSendOnlySeq(u, bits, k)
					ref.ChargeSendOnlySeq(u, bits, k)
				case 5:
					m.ChargeRxSeq(u, bits)
					ref.ChargeRxSeq(u, bits)
				case 6:
					sent := rng.IntN(100) - 1
					m.ChargeNodeSeq(u, sent, bits)
					ref.ChargeNodeSeq(u, sent, bits)
				case 7:
					k := int64(rng.IntN(3))
					m.ChargeEdgeSeq(u, v, int64(bits), k)
					ref.ChargeEdgeSeq(u, v, int64(bits), k)
				case 8:
					// One wave, in two chunks on the slot-laid meter.
					cut := rng.IntN(n + 1)
					m.ChargeBroadcastSeq(bits, first, tree.Root, 0, cut)
					m.ChargeBroadcastSeq(bits, first, tree.Root, cut, n)
					ref.ChargeBroadcastSeq(bits, refFanout, tree.Root, 0, n)
				case 9:
					if rng.IntN(8) == 0 {
						m.Reset()
						ref.Reset()
						snap, refSnap = m.Snapshot(), ref.Snapshot()
						led, refLed = m.Ledger(), ref.Ledger()
					}
				case 10:
					snap, refSnap = m.Snapshot(), ref.Snapshot()
				case 11:
					m2.Replay(m.ChargedSince(led))
					ref2.Replay(ref.ChargedSince(refLed))
					led, refLed = m.Ledger(), ref.Ledger()
				}
				where := fmt.Sprintf("tree %d seed %d step %d", ti, seed, step)
				requireMeterMatchesRef(t, where, m, ref)
				requireMeterMatchesRef(t, where+" (replayed)", m2, ref2)
				if got, want := m.Since(snap), ref.Since(refSnap); got != want {
					t.Fatalf("%s: Since %+v, ref %+v", where, got, want)
				}
			}
		}
	}
}

// newTreeLayout returns the ID → slot map of a network NewFromTree builds
// over tree.
func newTreeLayout(t *testing.T, tree *topology.Tree) []int32 {
	t.Helper()
	items := make([][]uint64, tree.N())
	g := &topology.Graph{Adj: make([][]topology.NodeID, tree.N())}
	return NewFromTree(g, tree, items, 1, 1).Meter.slot
}

func requireMeterMatchesRef(t *testing.T, where string, m *Meter, ref *refMeter) {
	t.Helper()
	for u := range ref.cells {
		id := topology.NodeID(u)
		if m.SentBitsOf(id) != ref.SentBitsOf(id) || m.RecvBitsOf(id) != ref.RecvBitsOf(id) ||
			m.MessagesOf(id) != ref.MessagesOf(id) || m.PerNode(id) != ref.PerNode(id) {
			t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, ref %d/%d/%d", where, u,
				m.SentBitsOf(id), m.RecvBitsOf(id), m.MessagesOf(id),
				ref.SentBitsOf(id), ref.RecvBitsOf(id), ref.MessagesOf(id))
		}
	}
	if m.MaxPerNode() != ref.MaxPerNode() || m.TotalBits() != ref.TotalBits() || m.TotalMessages() != ref.TotalMessages() {
		t.Fatalf("%s: max/total/msgs %d/%d/%d, ref %d/%d/%d", where,
			m.MaxPerNode(), m.TotalBits(), m.TotalMessages(), ref.MaxPerNode(), ref.TotalBits(), ref.TotalMessages())
	}
}
