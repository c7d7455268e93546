package spantree

import (
	"fmt"
	"slices"
	"sync"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
)

// excludedParent marks a node that is not part of a TreeView (crashed, or a
// survivor the repair could not reconnect). The root's parent stays -1, as
// in topology.Tree.
const excludedParent topology.NodeID = -2

// TreeView is the tree structure a tree engine executes over. The full
// view of a spanning tree covers every node; a healed view covers only the
// surviving nodes that are (re)connected to the root, with crashed and
// unreachable nodes excluded.
type TreeView struct {
	Root topology.NodeID
	// Parent is -1 for the root and excludedParent (-2) for nodes outside
	// the view.
	Parent []topology.NodeID
	// Children lists each node's children in ascending ID order.
	Children [][]topology.NodeID
	// Order lists the included nodes in BFS order from the root, a node's
	// children enqueued in Children order. So Order[0] is the root, every
	// level is a contiguous range of positions, and the children of
	// Order[i] are the contiguous positions after those of Order[0..i-1],
	// in Children order — the invariant the convergecast sweep addresses
	// partials by. Every constructor here and in topology emits it
	// (TestOrderChildrenContiguous); the sweep rejects a hand-built view
	// whose Children lists and Order disagree on the node count.
	Order []topology.NodeID
}

// FullView wraps an intact spanning tree as a view without copying: the
// tree is immutable, so the slices are shared.
func FullView(t *topology.Tree) *TreeView {
	return &TreeView{Root: t.Root, Parent: t.Parent, Children: t.Children, Order: t.Order}
}

// Includes reports whether node u participates in the view.
func (v *TreeView) Includes(u topology.NodeID) bool { return v.Parent[u] != excludedParent }

// N returns the number of included nodes.
func (v *TreeView) N() int { return len(v.Order) }

// HealResult reports one self-healing run.
type HealResult struct {
	// View is the repaired tree over the surviving, reconnected nodes.
	View *TreeView
	// Crashed is the number of crashed nodes.
	Crashed int
	// OrphanRoots is the number of survivors whose parent heartbeat went
	// missing (parent crashed or the link to it failed).
	OrphanRoots int
	// Reattached is the number of detached fragments grafted back onto
	// the tree (one per orphan root when repair fully succeeds).
	Reattached int
	// Unreachable is the number of survivors the repair could not
	// reconnect — nodes cut off from the root in the surviving graph.
	Unreachable int
	// Waves is the number of reattachment waves the repair ran.
	Waves int
	// Repair is the communication the whole repair charged to the meter.
	Repair netsim.Delta
}

// Heal repairs the network's spanning tree after structural faults: every
// surviving node detects whether its tree parent is still reachable
// (heartbeat), and orphaned subtrees reattach to live graph neighbours,
// wave by wave, until every survivor connected to the root in the
// surviving graph hangs off the repaired tree. The repair traffic is
// charged to the network meter like any other protocol traffic, so the
// cost of fault tolerance shows up in the paper's own complexity measure.
//
// The protocol, all over surviving nodes and live links. The surviving
// tree edges (both endpoints alive, link alive) partition the survivors
// into *fragments* — intact subtrees, each rooted either at the global
// root or at an orphan root whose parent heartbeat went missing:
//
//  1. Heartbeat: each node sends 1 bit to each tree child. A child that
//     hears nothing (parent crashed, or the link died) is an orphan root.
//  2. Detached flood: each orphan root floods a 1-bit marker down its
//     fragment, so every member knows it is cut off from the root.
//  3. HELP: every detached node sends 1 bit to each live graph neighbour.
//  4. Waves: every node newly connected to the root answers pending HELP
//     requests with AVAIL carrying its depth (Elias-gamma coded). Each
//     wave, a detached fragment with offers grafts once, at the member
//     with the shallowest offerer (1-bit JOIN; ties to the lowest node
//     ID): the fragment re-roots at the graft point — parent pointers
//     between it and the old orphan root flip — so reattachment works no
//     matter which side of the fragment touches the attached region.
//
// Repair control traffic is delivered reliably (an ARQ link layer is
// assumed for the tiny repair frames, and every retransmitted bit would be
// charged the same way); the plan's message-level drop/dup faults apply to
// protocol payload traffic, not to the repair handshake.
func Heal(nw *netsim.Network) (*HealResult, error) {
	plan := nw.Faults
	if plan == nil {
		return nil, fmt.Errorf("spantree: Heal requires a fault plan on the network")
	}
	root := nw.Tree.Root
	if plan.Crashed(root) {
		return nil, fmt.Errorf("spantree: root %d crashed — no querier to heal toward", root)
	}
	return healToward(nw, root)
}

// healToward is the healing protocol body, parameterized over the querier
// to heal toward: Heal passes the spanning-tree root, HealRerooted may pass
// any surviving node (root-kill recovery — the attachFragment re-rooting
// already makes any fragment member a valid attachment point, so an
// arbitrary acting root is just "attach its fragment first").
func healToward(nw *netsim.Network, root topology.NodeID) (*HealResult, error) {
	plan := nw.Faults
	tree, g, m := nw.Tree, nw.Graph, nw.Meter
	n := nw.N()
	before := m.Snapshot()
	// Quarantined nodes (the byz tier's containment of convicted liars)
	// are treated exactly like crashed ones: their heartbeats go silent
	// and the HELP/AVAIL/JOIN wave re-routes their honest descendants
	// around them. With no quarantine, Excluded == Crashed and the repair
	// is byte-identical to the honest-fault behavior.
	alive := func(u topology.NodeID) bool { return !plan.Excluded(u) }

	// parent becomes the repaired view's parent array and outlives the
	// call; a node is attached iff its parent is set. Everything else is
	// scratch for this call only, drawn from healPool, never parked on the
	// (pooled) network. The repair runs on the sequential protocol driver,
	// so frames are charged through the meter's single-writer edge path.
	hs := healPool.Get().(*healScratch)
	defer healPool.Put(hs)
	hs.links(g, plan)
	parent := make([]topology.NodeID, n)
	st := grow(hs.st, n)
	hs.st = st
	for i := range parent {
		parent[i] = excludedParent
		st[i] = healNode{frag: -1}
	}

	// Phase 1 — heartbeats parent → child over surviving tree links. The
	// surviving tree edges are the forest whose components are the
	// fragments: node u keeps the edge to tree.Parent[u] iff st[u].heard.
	for c := range st {
		cid := topology.NodeID(c)
		if p := tree.Parent[c]; p >= 0 && alive(cid) && alive(p) && hs.treeLinkAlive(g, plan, p, cid) {
			m.ChargeEdgeSeq(p, cid, 1, 1)
			st[c].heard = true
		}
	}

	// attachFragment re-roots the fragment containing graft at graft,
	// hanging it under par at the given depth: a BFS over kept edges flips
	// the parent pointers between the graft point and the fragment's old
	// root. The newly attached nodes are appended to wave in BFS order.
	attachFragment := func(wave []topology.NodeID, graft, par topology.NodeID, d int32) []topology.NodeID {
		parent[graft], st[graft].depth = par, d
		qi := len(wave)
		wave = append(wave, graft)
		for ; qi < len(wave); qi++ {
			u := wave[qi]
			d := st[u].depth + 1
			if p := tree.Parent[u]; st[u].heard && parent[p] == excludedParent {
				parent[p], st[p].depth = u, d
				wave = append(wave, p)
			}
			for _, c := range tree.Children[u] {
				if st[c].heard && parent[c] == excludedParent {
					parent[c], st[c].depth = u, d
					wave = append(wave, c)
				}
			}
		}
		return wave
	}

	// The initially attached region: the acting root's fragment. When the
	// acting root is the tree root, no pointers flip (it is already the
	// fragment's shallowest node); a re-rooted heal flips the fragment
	// under the new querier like any other graft.
	wave := attachFragment(grow(hs.wave, n)[:0], root, -1, 0)
	next := grow(hs.next, n)[:0]
	defer func() { hs.wave, hs.next = wave, next }()

	// Phase 2 — each orphan root floods a detached marker down its
	// fragment (1 bit per kept edge), so members know to call for help.
	// An orphan root is its fragment's shallowest tree node, so the flood
	// only ever follows kept edges downward. Skipping attached nodes skips
	// members of the acting root's fragment: under a re-rooted heal its
	// old orphan root is already attached and must not flood a second time.
	orphanRoots := 0
	for u := range st {
		uid := topology.NodeID(u)
		if !alive(uid) || st[u].heard || parent[u] != excludedParent {
			continue
		}
		f := int32(orphanRoots)
		orphanRoots++
		st[u].frag = f
		frag := append(next[:0], uid)
		for qi := 0; qi < len(frag); qi++ {
			v := frag[qi]
			for _, w := range tree.Children[v] {
				if st[w].heard {
					m.ChargeEdgeSeq(v, w, 1, 1)
					st[w].frag = f
					frag = append(frag, w)
				}
			}
		}
	}

	// Phase 3 — every detached node sends HELP to its live neighbours.
	// Links are symmetric, so a request is not stored: the neighbour finds
	// it again by scanning its own adjacency when it comes to answer.
	for u := range st {
		if st[u].frag < 0 {
			continue
		}
		uid := topology.NodeID(u)
		for a, nbr := range g.Adj[u] {
			if alive(nbr) && hs.linkAlive(u, a) {
				m.ChargeEdgeSeq(uid, nbr, 1, 1)
				st[nbr].asked = true
			}
		}
	}

	// Phase 4 — reattachment waves. pending lists the fragments still
	// detached, in ascending order; a fragment's best offer is only ever
	// set in the wave that grafts it, so the offers need no reset.
	type offer struct{ graft, from topology.NodeID }
	best := make([]offer, orphanRoots)
	pending := make([]int32, orphanRoots)
	for f := range pending {
		pending[f] = int32(f)
		best[f].from = -1
	}
	waves, reattached := 0, 0
	for len(pending) > 0 {
		// AVAIL: nodes attached in the previous wave answer pending
		// HELP requests from still-detached nodes.
		for _, u := range wave {
			if !st[u].asked {
				continue
			}
			du := st[u].depth
			for a, x := range g.Adj[u] {
				f := st[x].frag
				if f < 0 || parent[x] != excludedParent || !hs.linkAlive(int(u), a) {
					continue
				}
				m.ChargeEdgeSeq(u, x, int64(1+bitio.GammaWidth(uint64(du))), 1)
				b := &best[f]
				if b.from < 0 || du < st[b.from].depth ||
					(du == st[b.from].depth && (u < b.from || (u == b.from && x < b.graft))) {
					*b = offer{graft: x, from: u}
				}
			}
		}
		// JOIN: each offered fragment grafts once, at the member with
		// the shallowest offerer, re-rooting the fragment there.
		next = next[:0]
		unoffered := pending[:0]
		for _, f := range pending {
			b := best[f]
			if b.from < 0 {
				unoffered = append(unoffered, f)
				continue
			}
			m.ChargeEdgeSeq(b.graft, b.from, 1, 1)
			reattached++
			next = attachFragment(next, b.graft, b.from, st[b.from].depth+1)
		}
		if len(next) == 0 {
			break
		}
		waves++
		pending = unoffered
		wave, next = next, wave
	}

	unreachable := 0
	for u := range parent {
		if parent[u] == excludedParent && alive(topology.NodeID(u)) {
			unreachable++
		}
	}
	return &HealResult{
		View:        viewFromParents(parent, root, hs),
		Crashed:     plan.CrashedCount(),
		OrphanRoots: orphanRoots,
		Reattached:  reattached,
		Unreachable: unreachable,
		Waves:       waves,
		Repair:      m.Since(before),
	}, nil
}

// healNode is one node's state during a repair.
type healNode struct {
	depth int32 // hop distance from the acting root, once attached
	frag  int32 // detached fragment index (ascending orphan-root ID), -1 = none
	heard bool  // parent heartbeat arrived: the tree edge above survived
	asked bool  // holds a HELP request from a detached neighbour
}

// healScratch is one repair's working memory, pooled across repairs: the
// node states, both wave buffers, the view's fan-out count and the fate
// of every link.
type healScratch struct {
	st         []healNode
	wave, next []topology.NodeID
	fanout     []int32
	// dead has one bit per adjacency entry: bit off[u]+a is set when the
	// link from u to g.Adj[u][a] is dead. It is derived only when the plan
	// fails links at all (linkFaults).
	linkFaults bool
	off        []int32
	dead       []uint64
}

var healPool = sync.Pool{New: func() any { return new(healScratch) }}

// links derives the fate of every link of g under plan as it stands,
// hashing each undirected link once: from its lower endpoint, with the
// higher endpoint's entry found by binary search (Adj lists are sorted).
// A plan with no run-long link failures and no mid-flight ones that have
// struck keeps every link alive (Plan.LinkAlive's own condition), and
// nothing is derived.
func (hs *healScratch) links(g *topology.Graph, plan *faults.Plan) {
	sp := plan.Spec()
	hs.linkFaults = sp.LinkFail > 0 || plan.PhaseFired() && sp.MidLinkFail > 0
	if !hs.linkFaults {
		return
	}
	n := len(g.Adj)
	hs.off = grow(hs.off, n+1)
	total := 0
	for u, nbrs := range g.Adj {
		hs.off[u] = int32(total)
		total += len(nbrs)
	}
	hs.off[n] = int32(total)
	hs.dead = grow(hs.dead, (total+63)/64)
	clear(hs.dead)
	for u, nbrs := range g.Adj {
		uid := topology.NodeID(u)
		for a, v := range nbrs {
			b, hashed := 0, false
			if v < uid {
				b, hashed = slices.BinarySearch(g.Adj[v], uid)
			}
			if hashed && !hs.linkAlive(int(v), b) || !hashed && !plan.LinkAlive(uid, v) {
				bit := int(hs.off[u]) + a
				hs.dead[bit/64] |= 1 << (bit % 64)
			}
		}
	}
}

// linkAlive reports whether the link from u to g.Adj[u][a] is alive.
func (hs *healScratch) linkAlive(u, a int) bool {
	if !hs.linkFaults {
		return true
	}
	bit := int(hs.off[u]) + a
	return hs.dead[bit/64]&(1<<(bit%64)) == 0
}

// treeLinkAlive reports whether the tree edge (p, c) is alive: from the
// derived fates when it is a graph edge, from the plan when it is not (a
// hand-built tree may hang a node off a non-neighbour).
func (hs *healScratch) treeLinkAlive(g *topology.Graph, plan *faults.Plan, p, c topology.NodeID) bool {
	if !hs.linkFaults {
		return true
	}
	if a, ok := slices.BinarySearch(g.Adj[c], p); ok {
		return hs.linkAlive(int(c), a)
	}
	return plan.LinkAlive(p, c)
}

// NewFastHealed returns the fast engine a faulty run should execute over:
// when the network's fault plan carries structural faults it first runs
// Heal and returns an engine over the repaired view (with the repair
// result), otherwise a plain full-tree engine and a nil result. It is the
// single policy point for "repair before tree queries" shared by the
// query engine and the console.
func NewFastHealed(nw *netsim.Network) (*FastEngine, *HealResult, error) {
	if p := nw.Faults; p != nil && (p.Spec().Structural() || p.QuarantinedCount() > 0) {
		hr, err := Heal(nw)
		if err != nil {
			return nil, nil, err
		}
		return NewFastView(nw, hr.View), hr, nil
	}
	return NewFast(nw), nil, nil
}

// SubtreeView carves the subtree rooted at r out of view v: r becomes the
// root, its descendants keep their parents, and every other node is
// excluded. Children and the underlying tree are shared with v (views are
// immutable by convention), so the cost is one parent array and the
// subtree's BFS order. The byz tier runs per-sector aggregations and
// audits over these views.
func SubtreeView(v *TreeView, r topology.NodeID) *TreeView {
	sub := &TreeView{
		Root:     r,
		Parent:   make([]topology.NodeID, len(v.Parent)),
		Children: v.Children,
	}
	for i := range sub.Parent {
		sub.Parent[i] = excludedParent
	}
	sub.Parent[r] = -1
	// v.Order lists every parent before its children, so one pass marks
	// and counts the subtree, and the subtree's BFS order is v.Order
	// restricted to it: Order is sized once instead of grown.
	size := 1
	for _, u := range v.Order {
		if p := v.Parent[u]; p >= 0 && sub.Parent[p] != excludedParent {
			sub.Parent[u] = p
			size++
		}
	}
	sub.Order = make([]topology.NodeID, 0, size)
	for _, u := range v.Order {
		if sub.Parent[u] != excludedParent {
			sub.Order = append(sub.Order, u)
		}
	}
	return sub
}

// ViewFromParents rebuilds a view from its parent array (TreeView.Parent),
// which the view shares: a view kept as its parent array costs 4 bytes a
// node instead of the whole view.
func ViewFromParents(parent []topology.NodeID, root topology.NodeID) *TreeView {
	hs := healPool.Get().(*healScratch)
	defer healPool.Put(hs)
	return viewFromParents(parent, root, hs)
}

// viewFromParents assembles a TreeView from a parent array in which
// excluded nodes carry excludedParent. Children are listed in ID order,
// carved from one backing array owned by the view (each list's capacity
// ends where the next begins), and Order is BFS from the root. The
// fan-out count is hs's scratch.
func viewFromParents(parent []topology.NodeID, root topology.NodeID, hs *healScratch) *TreeView {
	n := len(parent)
	v := &TreeView{
		Root:     root,
		Parent:   parent,
		Children: make([][]topology.NodeID, n),
	}
	fanout := grow(hs.fanout, n)
	hs.fanout = fanout
	clear(fanout)
	included := 0
	for _, p := range parent {
		if p == excludedParent {
			continue
		}
		included++
		if p >= 0 { // every included node but the root
			fanout[p]++
		}
	}
	backing := make([]topology.NodeID, included-1)
	off := 0
	for u, k := range fanout {
		if k > 0 {
			v.Children[u] = backing[off : off : off+int(k)]
			off += int(k)
		}
	}
	for u, p := range parent {
		if p >= 0 {
			v.Children[p] = append(v.Children[p], topology.NodeID(u))
		}
	}
	v.Order = make([]topology.NodeID, 0, included)
	v.Order = append(v.Order, root)
	for qi := 0; qi < len(v.Order); qi++ {
		v.Order = append(v.Order, v.Children[v.Order[qi]]...)
	}
	return v
}
