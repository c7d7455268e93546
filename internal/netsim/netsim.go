// Package netsim simulates a sensor network with exact communication
// accounting.
//
// The paper's system model (Section 2.1) is a set of nodes, one of which is
// the root; each node holds a multiset of non-negative integer items, and
// the complexity measure is the maximum over nodes of bits sent plus bits
// received. This package provides the nodes (with their local items,
// per-node random streams, and protocol scratch state), the per-node bit
// meters, and a synchronous round-based message engine used by graph-level
// protocols (gossip, distributed tree construction). Tree-structured
// broadcast/convergecast engines live in package spantree.
package netsim

import (
	"fmt"
	"math/rand/v2"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
)

// Item is one sensor reading held by a node. APX MEDIAN2 (Fig. 4) rescales
// readings and deactivates nodes between stages, so each item carries its
// original value, its current (possibly rescaled) value, and an active flag.
type Item struct {
	Orig   uint64
	Cur    uint64
	Active bool
}

// Node is one sensor. Protocol callbacks run "at the node": they may touch
// only this node's state, which is what makes the simulation honest about
// locality. The RNG is the node's private random tape (§2.1 models nodes as
// RAM machines with access to random bits).
type Node struct {
	ID    topology.NodeID
	Items []Item
	// Scratch holds protocol-local node state between callbacks (e.g. a
	// node's current sketch contribution). Protocols must not read another
	// node's Scratch.
	Scratch any

	// pcg is embedded (not a pointer) so a pooled network can reseed the
	// stream in place (ForkPool) and node RNG state lives inside the
	// network's contiguous node array.
	pcg rand.PCG
	rng *rand.Rand

	// outbox is the node's reusable round-engine send buffer; see
	// OutboxScratch.
	outbox []GraphMsg
}

// RNG returns the node's private random stream.
func (n *Node) RNG() *rand.Rand { return n.rng }

// OutboxScratch returns a zero-length message slice backed by the node's
// reusable outbox buffer. Round handlers append this round's messages to
// it and return it from Step; after delivery the round engine reclaims
// whatever Step returned, so a warm round sends without allocating. The
// slice is only valid within the Step call that obtained it.
func (n *Node) OutboxScratch() []GraphMsg { return n.outbox[:0] }

// nodeStream is the per-node RNG stream derivation shared by construction
// and pooled reseeding.
func nodeStream(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 0xabcd }

// ResetItems restores every item to its original value and activates it.
func (n *Node) ResetItems() {
	for i := range n.Items {
		n.Items[i].Cur = n.Items[i].Orig
		n.Items[i].Active = true
	}
}

// Network is a simulated deployment: a graph, a rooted spanning tree, the
// nodes with their items, and the communication meter.
type Network struct {
	Graph *topology.Graph
	Tree  *topology.Tree
	// Nodes[id] is node id. The nodes themselves live in storage order
	// (see store), so Nodes is an index, not the layout.
	Nodes []*Node
	Meter *Meter

	// Faults optionally attaches a fault plan to this network's run: the
	// round engines (RunRounds, RunRadioRounds) and the spantree fast
	// engine consult it at every delivery. nil — and any inactive plan —
	// means a reliable network, byte-identical to the pre-fault simulator.
	// A plan carries single-run state (message sequence counters), so
	// attach a fresh plan to every forked network instead of sharing one;
	// Fork deliberately leaves the fork's plan nil.
	Faults *faults.Plan

	// MaxX is the known upper bound X on item values (§2.1 assumes X is
	// known and log X = O(log N)).
	MaxX uint64
	// ValueWidth is the fixed encoding width for item values, bits.
	ValueWidth int

	seed uint64

	// store holds the nodes in the tree's BFS order — node Tree.Order[p]
	// at storage slot p — and items their readings, slot after slot, as
	// does the meter's cell array. Every broadcast and convergecast visits
	// the nodes in exactly that order, so a sweep walks all three linearly
	// instead of striding across node IDs.
	store []Node
	items []Item
	lay   *layout

	// pool is the ForkPool a pooled fork returns to on Release; nil for
	// networks built directly.
	pool *ForkPool
	// scratch holds the round engines' per-run inbox/outbox storage,
	// allocated on first use and reused across rounds and runs.
	scratch *runScratch
	// treeScratch is the tree engines' reusable execution scratch
	// (spantree stores the full view of the tree, the two-level
	// partial rings, and the payload arenas here), opaque to netsim. It
	// rides along through pooled reuse so repeated queries against one
	// run network skip the rebuild.
	treeScratch any
}

// layout is the item index of a template network, built once by
// NewFromTree and shared, read-only, by every fork of it. Its storage
// order is the tree's: node id's slot — its index in store and in the
// meter's cells — is its position in Tree.Order (Tree.CSR).
type layout struct {
	// firstItem[id] is the index of node id's first item in the ID-ordered
	// item list (AllItems). It is nil when every node holds exactly one
	// item, so node id's reading sits at index id.
	firstItem []uint64
}

// TreeScratch returns the opaque tree-engine scratch attached to this
// network, or nil.
func (nw *Network) TreeScratch() any { return nw.treeScratch }

// SetTreeScratch attaches tree-engine scratch to this network. The
// network owns one run at a time and the run's engines — over the full,
// a healed or a sector view — take turns, so the engine executing an
// operation has exclusive use of the scratch for that operation.
func (nw *Network) SetTreeScratch(s any) { nw.treeScratch = s }

// Option configures a Network.
type Option func(*config)

type config struct {
	root        topology.NodeID
	maxChildren int
	seed        uint64
}

// WithRoot selects the root node (default 0).
func WithRoot(root topology.NodeID) Option {
	return func(c *config) { c.root = root }
}

// WithMaxChildren bounds the spanning tree's child count (default 8; 0
// disables bounding). Fact 2.1's O(log N) per-node bound needs bounded
// degree.
func WithMaxChildren(k int) Option {
	return func(c *config) { c.maxChildren = k }
}

// WithSeed sets the base seed for all node random streams (default 1).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// DefaultMaxChildren is the default spanning-tree degree bound.
const DefaultMaxChildren = 8

// New builds a network over g with one item per node, values[i] at node i,
// and value domain [0, maxX]. It panics if g is disconnected or values has
// the wrong length; experiment code treats that as a programming error.
func New(g *topology.Graph, values []uint64, maxX uint64, opts ...Option) *Network {
	if len(values) != g.N() {
		panic(fmt.Sprintf("netsim: %d values for %d nodes", len(values), g.N()))
	}
	items := make([][]uint64, len(values))
	for i, v := range values {
		items[i] = []uint64{v}
	}
	return NewMulti(g, items, maxX, opts...)
}

// NewMulti builds a network where node i holds the multiset items[i]
// (Section 5 of the paper allows multiple items per node).
func NewMulti(g *topology.Graph, items [][]uint64, maxX uint64, opts ...Option) *Network {
	if !g.Connected() {
		panic("netsim: graph is disconnected")
	}
	if len(items) != g.N() {
		panic(fmt.Sprintf("netsim: %d item lists for %d nodes", len(items), g.N()))
	}
	cfg := config{maxChildren: DefaultMaxChildren, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	tree := BuildTree(g, cfg.root, cfg.maxChildren)
	return NewFromTree(g, tree, items, maxX, cfg.seed)
}

// BuildTree constructs the bounded-degree BFS spanning tree a network would
// use, without building the network. Graph and tree are immutable after
// construction, so callers (e.g. the concurrent query engine's session
// cache) may share one tree across many concurrent networks.
func BuildTree(g *topology.Graph, root topology.NodeID, maxChildren int) *topology.Tree {
	tree := topology.BFSTree(g, root)
	if maxChildren > 0 {
		tree = topology.BoundDegree(tree, maxChildren)
	}
	return tree
}

// NewFromTree builds a network over a prebuilt spanning tree of g. The
// graph and tree are shared, not copied: both are immutable after
// construction, so any number of networks — including networks running
// concurrently — may be built over the same pair. Everything mutable (the
// nodes with their items, scratch state, and RNG streams, plus the meter)
// is freshly allocated per network.
//
// Nodes, items and meter cells are stored in tree.Order (see
// Network.store), which must therefore list every node exactly once.
func NewFromTree(g *topology.Graph, tree *topology.Tree, items [][]uint64, maxX uint64, seed uint64) *Network {
	n := g.N()
	if tree.N() != n {
		panic(fmt.Sprintf("netsim: tree has %d nodes, graph has %d", tree.N(), n))
	}
	if len(items) != n {
		panic(fmt.Sprintf("netsim: %d item lists for %d nodes", len(items), n))
	}
	if len(tree.Order) != n {
		panic(fmt.Sprintf("netsim: tree Order lists %d of %d nodes", len(tree.Order), n))
	}
	pos, _, _ := tree.CSR()
	lay := &layout{}
	single := true
	for p, id := range tree.Order {
		if id < 0 || int(id) >= len(pos) || pos[id] != int32(p) {
			panic(fmt.Sprintf("netsim: tree Order is not a permutation of the nodes: %d at position %d", id, p))
		}
		single = single && len(items[id]) == 1
	}
	total := n
	if !single {
		lay.firstItem = make([]uint64, n)
		total = 0
		for id, list := range items {
			lay.firstItem[id] = uint64(total)
			total += len(list)
		}
	}
	backing := make([]Item, 0, total)
	for _, id := range tree.Order {
		for _, v := range items[id] {
			if v > maxX {
				panic(fmt.Sprintf("netsim: item %d at node %d exceeds maxX %d", v, id, maxX))
			}
			backing = append(backing, Item{Orig: v, Cur: v, Active: true})
		}
	}
	return lay.network(g, tree, backing, maxX, seed, func(p int) int { return len(items[tree.Order[p]]) })
}

// network assembles a network over l: slot p holds node tree.Order[p] with
// the next count(p) items of backing, which is already in storage order.
func (l *layout) network(g *topology.Graph, tree *topology.Tree, backing []Item, maxX, seed uint64, count func(p int) int) *Network {
	n := len(tree.Order)
	pos, _, _ := tree.CSR()
	nw := &Network{
		Graph: g,
		Tree:  tree,
		Nodes: make([]*Node, n),
		Meter: newMeter(pos),
		MaxX:  maxX,
		// Width covers maxX+1: predicate thresholds range over [0, X+1]
		// ("< X+1" selects everything), one more value than the items.
		ValueWidth: bitio.WidthOfRange(maxX + 1),
		seed:       seed,
		store:      make([]Node, n),
		items:      backing,
		lay:        l,
	}
	off := 0
	for p, id := range tree.Order {
		nd := &nw.store[p]
		nd.ID = id
		nd.pcg = *rand.NewPCG(seed, nodeStream(int(id)))
		nd.rng = rand.New(&nd.pcg)
		end := off + count(p)
		nd.Items = backing[off:end:end]
		off = end
		nw.Nodes[id] = nd
	}
	return nw
}

// Fork returns an independent network for one run: it shares the immutable
// Graph and Tree — and the storage layout — with the receiver but gets its
// own nodes (items restored to their original values, fresh scratch, fresh
// RNG streams seeded from seed) and its own Meter. Runs forked off one
// template network therefore share no mutable state, which is what makes
// concurrent query execution race-free; a fork with the template's own seed
// reproduces the template exactly.
func (nw *Network) Fork(seed uint64) *Network {
	backing := make([]Item, len(nw.items))
	for i, it := range nw.items {
		backing[i] = Item{Orig: it.Orig, Cur: it.Orig, Active: true}
	}
	return nw.lay.network(nw.Graph, nw.Tree, backing, nw.MaxX, seed, func(p int) int { return len(nw.store[p].Items) })
}

// resetForRun turns an already-forked network back into exactly what
// template.Fork(seed) would build: items restored to the template's
// readings (a run may have injected its own) and active, scratch cleared,
// RNG streams reseeded in place, meter zeroed, fault plan detached. This is
// ForkPool's reset-into-place path; byte-identity with a fresh fork is
// asserted by tests.
func (nw *Network) resetForRun(template *Network, seed uint64) {
	nw.seed = seed
	nw.Faults = nil
	nw.Meter.Reset()
	for p := range nw.store {
		nd := &nw.store[p]
		nd.Scratch = nil
		nd.pcg.Seed(seed, nodeStream(int(nd.ID)))
	}
	for i, it := range template.items {
		nw.items[i] = Item{Orig: it.Orig, Cur: it.Orig, Active: true}
	}
}

// Release returns a pooled network to its ForkPool for reuse by a later
// run. It is a no-op for networks not obtained from a pool. The caller
// must be completely done with the network — including its meter — before
// releasing.
func (nw *Network) Release() {
	if nw.pool != nil {
		nw.pool.Put(nw)
	}
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.Nodes) }

// Root returns the root node ID.
func (nw *Network) Root() topology.NodeID { return nw.Tree.Root }

// Seed returns the base seed the network was built with.
func (nw *Network) Seed() uint64 { return nw.seed }

// NumItems returns the total number of items N = |X| in the network.
func (nw *Network) NumItems() int { return len(nw.items) }

// ResetItems restores every node's items to their original active state.
func (nw *Network) ResetItems() {
	for i := range nw.items {
		it := &nw.items[i]
		it.Cur, it.Active = it.Orig, true
	}
}

// ItemKey returns the identity of node u's i-th item: its index in the
// ID-ordered item list (AllItems). Sketch protocols hash it, and
// core.LocalNet numbers its items the same way.
func (nw *Network) ItemKey(u topology.NodeID, i int) uint64 {
	if nw.lay.firstItem == nil {
		return uint64(u)
	}
	return nw.lay.firstItem[u] + uint64(i)
}

// AllItems returns a copy of the full input multiset X in node ID order —
// simulator-side ground truth for validators; protocols never call this.
func (nw *Network) AllItems() []uint64 {
	out := make([]uint64, len(nw.items))
	if nw.lay.firstItem == nil {
		// Slot p's one item is node Tree.Order[p]'s: read storage linearly.
		for p, id := range nw.Tree.Order {
			out[id] = nw.items[p].Orig
		}
		return out
	}
	out = out[:0]
	for _, nd := range nw.Nodes {
		for _, it := range nd.Items {
			out = append(out, it.Orig)
		}
	}
	return out
}
