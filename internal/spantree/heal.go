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
	// Order lists the included nodes in BFS order from the root. Order[0]
	// is the root, every level is a contiguous range of positions, and the
	// children of Order[i] are the contiguous positions after those of
	// Order[0..i-1] — the invariant the convergecast sweep addresses
	// partials by. It is structural: every view's children are read as
	// ranges of a BFS order, never kept as lists of their own.
	Order []topology.NodeID

	// The child lists, one layout for every view: node u's children are
	// kids[first[pos[u]]:first[pos[u]+1]]. A full view shares its tree's
	// (Tree.CSR over Tree.Order); a healed view's are its own Order and
	// schedule; a subtree view shares its base's.
	pos, first []int32
	kids       []topology.NodeID
	// sched is the view's sweep schedule, built with the view: a full
	// view's child starts and level bounds are its tree's.
	sched viewSched
}

// FullView wraps an intact spanning tree as a view without copying: the
// tree is immutable, so its slices — layout and schedule included — are
// shared.
func FullView(t *topology.Tree) *TreeView {
	pos, first, levels := t.CSR()
	v := &TreeView{Root: t.Root, Parent: t.Parent, Order: t.Order, pos: pos, first: first, kids: t.Order}
	v.sched.set(first, levels)
	return v
}

// Children lists node u's children in the view, in Order; nil for a node
// outside the view. The slice is shared with the view and must not be
// modified.
func (v *TreeView) Children(u topology.NodeID) []topology.NodeID {
	if !v.Includes(u) {
		return nil
	}
	i := v.pos[u]
	return v.kids[v.first[i]:v.first[i+1]]
}

// Includes reports whether node u participates in the view.
func (v *TreeView) Includes(u topology.NodeID) bool { return v.Parent[u] != excludedParent }

// N returns the number of included nodes.
func (v *TreeView) N() int { return len(v.Order) }

// Equal reports whether v and w are the same tree: the same root, parents
// and order, which under the Order invariant fix every child list.
func (v *TreeView) Equal(w *TreeView) bool {
	return v.Root == w.Root && slices.Equal(v.Parent, w.Parent) && slices.Equal(v.Order, w.Order)
}

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

// HealRerooted repairs the network's spanning tree after structural
// faults, toward the querier: the tree root when it survived, else the
// lowest-ID surviving node (the deterministic leader the survivors would
// elect — root-kill recovery). Every surviving node detects whether its
// tree parent is still reachable (heartbeat), and orphaned subtrees
// reattach to live graph neighbours, wave by wave, until every survivor
// connected to the acting root in the surviving graph hangs off the
// repaired tree. The repair traffic is charged to the network meter like
// any other protocol traffic, so the cost of fault tolerance shows up in
// the paper's own complexity measure. It returns the acting root alongside
// the repair result, and requires a fault plan on the network.
//
// The protocol, all over surviving nodes and live links. The surviving
// tree edges (both endpoints alive, link alive) partition the survivors
// into *fragments* — intact subtrees, each rooted either at the tree root
// or at an orphan root whose parent heartbeat went missing:
//
//  1. Heartbeat: each node sends 1 bit to each tree child. A child that
//     hears nothing (parent crashed, or the link died) is an orphan root.
//  2. Detached flood: each orphan root floods a 1-bit marker down its
//     fragment, so every member knows it is cut off from the root. After
//     a root kill, every survivor is in such a fragment; the acting
//     root's attaches first, re-rooted under it like any graft below, and
//     floods no marker.
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
func HealRerooted(nw *netsim.Network) (*HealResult, topology.NodeID, error) {
	plan := nw.Faults
	if plan == nil {
		return nil, -1, fmt.Errorf("spantree: HealRerooted requires a fault plan on the network")
	}
	root := nw.Tree.Root
	for u := 0; plan.Excluded(root); u++ { // a root kill: the lowest-ID survivor acts
		if u == nw.N() {
			return nil, -1, fmt.Errorf("spantree: every node excluded — no survivor to re-root at")
		}
		root = topology.NodeID(u)
	}
	hs := healPool.Get().(*healScratch)
	defer healPool.Put(hs)
	return hs.heal(nw, root), root, nil
}

// healNode is one node's state during a repair.
type healNode struct {
	depth int32 // hop distance from the acting root, once attached
	// frag is the detached fragment index of a survivor that is not
	// attached yet, else -1.
	frag int32
	// sent, recv and msgs are the node's repair traffic so far, charged to
	// the meter in one pass when the repair ends.
	sent, recv, msgs int32
	// alive is false for crashed and quarantined nodes alike: the byz
	// tier's quarantined liars fall silent like crashed nodes, and the
	// HELP/AVAIL/JOIN waves route their honest descendants around them.
	alive bool
	heard bool // parent heartbeat arrived: the tree edge above survived
	asked bool // holds a HELP request from a detached neighbour
}

// offer is a detached fragment's best AVAIL so far: graft hears from.
type offer struct{ graft, from topology.NodeID }

// healScratch is one repair's working memory, pooled across repairs: the
// node states, the detached nodes, both wave buffers, the fragments'
// offers and the view assembly's child lists. The fields from plan to
// parent are the repair in flight; heal drops them before the scratch
// returns to the pool.
type healScratch struct {
	st             []healNode
	detached       []topology.NodeID
	wave, next     []topology.NodeID
	best           []offer
	pending        []int32
	kidStart, fill []int32
	kids           []topology.NodeID

	plan   *faults.Plan
	fates  *faults.LinkFates
	tree   *topology.Tree
	parent []topology.NodeID
}

var healPool = sync.Pool{New: func() any { return new(healScratch) }}

// heal runs one repair toward root. Every survivor ends up attached (its
// parent set; parent becomes the view's and outlives the call) or on the
// detached list, which the HELP phase walks instead of every node. The
// link fates come from the run network's scratch, derived once per plan
// epoch. Each frame is charged to its endpoints' node states, and the
// repair ends with one pass that charges every node's total to the meter
// — sequentially, through the meter's single-writer path — and reads
// HealResult.Repair off the same totals.
func (hs *healScratch) heal(nw *netsim.Network, root topology.NodeID) *HealResult {
	plan, g := nw.Faults, nw.Graph
	n := nw.N()
	hs.plan, hs.tree = plan, nw.Tree
	hs.fates = scratchOf(nw).fates.Of(plan, g, nw.Tree)
	hs.parent = make([]topology.NodeID, n)
	hs.st = grow(hs.st, n)
	hs.detached = grow(hs.detached, n)[:0]
	defer func() { hs.plan, hs.fates, hs.tree, hs.parent = nil, nil, nil, nil }()
	parent, st := hs.parent, hs.st

	// Phases 1 and 2: heartbeats, the detached flood and, after a root
	// kill, the acting root's fragment.
	frags := hs.rootPass()
	acting := int32(-1)
	if root != nw.Tree.Root {
		acting = hs.adopt(root)
	}

	// Phase 3 — every detached node sends HELP to its live neighbours.
	// Links are symmetric, so a request is not stored: the neighbour finds
	// it again by scanning its own adjacency when it comes to answer. The
	// first AVAIL wave is the attached nodes that hold a request.
	wave := grow(hs.wave, n)[:0]
	for _, u := range hs.detached {
		dead, sent := hs.fates.DeadNeighbors(u), int32(0)
		for _, nbr := range g.Adj[u] {
			if len(dead) > 0 && dead[0] == nbr {
				dead = dead[1:]
				continue
			}
			s := &st[nbr]
			if !s.alive {
				continue
			}
			s.recv++
			sent++
			if !s.asked {
				s.asked = true
				if s.frag < 0 {
					wave = append(wave, nbr)
				}
			}
		}
		hs.send(u, 1, sent)
	}

	// Phase 4 — reattachment waves. pending lists the fragments still
	// detached; a fragment's best offer is only ever set in the wave that
	// grafts it, so the offers need no reset. Every choice below is a
	// minimum over a total order and every charge a sum, so the order in
	// which waves list their nodes and fragments changes nothing.
	best, pending := grow(hs.best, frags), grow(hs.pending, frags)[:0]
	for f := range best {
		best[f].from = -1
		if int32(f) != acting {
			pending = append(pending, int32(f))
		}
	}
	hs.best, hs.pending = best, pending
	orphanRoots := len(pending)
	next := grow(hs.next, n)[:0]
	defer func() { hs.wave, hs.next = wave, next }()
	waves, reattached, regained := 0, 0, 0
	for len(pending) > 0 {
		// AVAIL: nodes attached in the previous wave answer pending
		// HELP requests from still-detached nodes.
		for _, u := range wave {
			if !st[u].asked {
				continue
			}
			du := st[u].depth
			bits := int32(1 + bitio.GammaWidth(uint64(du)))
			dead, sent := hs.fates.DeadNeighbors(u), int32(0)
			for _, x := range g.Adj[u] {
				if len(dead) > 0 && dead[0] == x {
					dead = dead[1:]
					continue
				}
				f := st[x].frag
				if f < 0 {
					continue
				}
				st[x].recv += bits
				sent++
				b := &best[f]
				if b.from < 0 || du < st[b.from].depth ||
					(du == st[b.from].depth && (u < b.from || (u == b.from && x < b.graft))) {
					*b = offer{graft: x, from: u}
				}
			}
			hs.send(u, bits, sent)
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
			hs.charge(b.graft, b.from, 1, 1)
			reattached++
			next = hs.attach(next, b.graft, b.from, st[b.from].depth+1)
		}
		if len(next) == 0 {
			break
		}
		waves++
		regained += len(next)
		pending = unoffered
		wave, next = next, wave
	}

	// In tree order, the meter's cells are visited in storage order.
	var repair netsim.Delta
	for _, u := range nw.Tree.Order {
		s := &st[u]
		if s.sent == 0 && s.recv == 0 {
			continue
		}
		nw.Meter.ChargeCellSeq(u, int64(s.sent), int64(s.recv), int64(s.msgs))
		repair.MaxPerNode = max(repair.MaxPerNode, int64(s.sent+s.recv))
		repair.TotalBits += int64(s.sent)
		repair.Messages += int64(s.msgs)
	}
	return &HealResult{
		View:        viewFromParents(parent, root, hs),
		Crashed:     plan.CrashedCount(),
		OrphanRoots: orphanRoots,
		Reattached:  reattached,
		Unreachable: len(hs.detached) - regained,
		Waves:       waves,
		Repair:      repair,
	}
}

// rootPass runs phases 1 and 2 of every heal in one pass over tree.Order,
// parents before children: a node is in the tree root's
// fragment iff its parent heartbeat arrived and its parent is, and then
// keeps its tree parent, one level below it. A survivor whose heartbeat
// went missing is an orphan root and opens a fragment; one that heard a
// detached parent joins the parent's fragment, its heartbeat and flood
// marker on the same edge. Each node's state is written once. An excluded
// tree root (a root kill) leaves the root's fragment empty, so every
// survivor lands in a fragment. It returns the number of fragments.
func (hs *healScratch) rootPass() int {
	tree, plan, parent, st := hs.tree, hs.plan, hs.parent, hs.st
	root := tree.Root
	parent[root], st[root] = -1, healNode{frag: -1, alive: true}
	if plan.Excluded(root) {
		parent[root], st[root].alive = excludedParent, false
	}
	frags := 0
	for _, u := range tree.Order[1:] {
		s, par := healNode{frag: -1, alive: !plan.Excluded(u)}, excludedParent
		if s.alive {
			p := tree.Parent[u]
			ps := &st[p] // attached iff alive outside every fragment
			switch {
			case !ps.alive || !hs.fates.UpAlive(u):
				s.frag = int32(frags)
				frags++
				hs.detached = append(hs.detached, u)
			case ps.frag < 0:
				ps.sent++
				ps.msgs++
				s.recv, s.heard = 1, true
				par, s.depth = p, ps.depth+1
			default:
				ps.sent += 2
				ps.msgs += 2
				s.recv, s.heard, s.frag = 2, true, ps.frag
				hs.detached = append(hs.detached, u)
			}
		}
		parent[u], st[u] = par, s
	}
	return frags
}

// adopt attaches the acting root's fragment under it after a root kill,
// re-rooted there, and returns the fragment's index. Its members heard a
// heartbeat but no detached marker, so each kept edge's flood bit is taken
// back, and they leave the detached list.
func (hs *healScratch) adopt(root topology.NodeID) int32 {
	st := hs.st
	f := st[root].frag
	hs.wave = hs.attach(grow(hs.wave, len(st))[:0], root, -1, 0)
	for _, u := range hs.wave {
		if st[u].heard {
			hs.charge(hs.tree.Parent[u], u, -1, -1)
		}
	}
	hs.detached = slices.DeleteFunc(hs.detached, func(u topology.NodeID) bool { return st[u].frag < 0 })
	return f
}

// attach re-roots the fragment containing graft at graft, hanging it under
// par at depth d: a BFS over kept edges flips the parent pointers between
// the graft point and the fragment's old root. The newly attached nodes
// leave their fragment and are appended to wave in BFS order.
func (hs *healScratch) attach(wave []topology.NodeID, graft, par topology.NodeID, d int32) []topology.NodeID {
	tree, parent, st := hs.tree, hs.parent, hs.st
	parent[graft], st[graft].depth, st[graft].frag = par, d, -1
	qi := len(wave)
	wave = append(wave, graft)
	for ; qi < len(wave); qi++ {
		u := wave[qi]
		d := st[u].depth + 1
		if p := tree.Parent[u]; st[u].heard && parent[p] == excludedParent {
			parent[p], st[p].depth, st[p].frag = u, d, -1
			wave = append(wave, p)
		}
		for _, c := range tree.Children(u) {
			if st[c].heard && parent[c] == excludedParent {
				parent[c], st[c].depth, st[c].frag = u, d, -1
				wave = append(wave, c)
			}
		}
	}
	return wave
}

// charge sends msgs repair frames totalling bits bits from one node to
// another.
func (hs *healScratch) charge(from, to topology.NodeID, bits, msgs int32) {
	s := &hs.st[from]
	s.sent += bits
	s.msgs += msgs
	hs.st[to].recv += bits
}

// send charges k frames of bits bits each to their sender, a node that
// sends the same frame to k neighbours; each receiver is charged its own.
func (hs *healScratch) send(u topology.NodeID, bits, k int32) {
	s := &hs.st[u]
	s.sent += bits * k
	s.msgs += k
}

// NewFastHealed returns the fast engine a faulty run should execute over:
// when the network's fault plan carries structural faults it first runs
// HealRerooted and returns an engine over the repaired view (with the repair
// result), otherwise a plain full-tree engine and a nil result. It is the
// single policy point for "repair before tree queries" shared by the
// query engine and the console.
func NewFastHealed(nw *netsim.Network) (*FastEngine, *HealResult, error) {
	if p := nw.Faults; p != nil && (p.Spec().Structural() || p.QuarantinedCount() > 0) {
		hr, _, err := HealRerooted(nw)
		if err != nil {
			return nil, nil, err
		}
		return NewFastView(nw, hr.View), hr, nil
	}
	return NewFast(nw), nil, nil
}

// SubtreeView carves the subtree rooted at r out of view v: r becomes the
// root, its descendants keep their parents, and every other node is
// excluded. The child layout is shared with v (views are immutable by
// convention), so the cost is one parent array, the subtree's BFS order
// and its sweep schedule. The byz tier runs per-sector aggregations and
// audits over these views.
func SubtreeView(v *TreeView, r topology.NodeID) *TreeView {
	sub := &TreeView{
		Root:   r,
		Parent: make([]topology.NodeID, len(v.Parent)),
		pos:    v.pos,
		first:  v.first,
		kids:   v.kids,
	}
	for i := range sub.Parent {
		sub.Parent[i] = excludedParent
	}
	sub.Parent[r] = -1
	// v.Order lists every parent before its children, so one pass marks
	// and counts the subtree, and the subtree's BFS order is v.Order
	// restricted to it: a second pass writes it, each position's first
	// child following the children of the positions before it.
	size := 1
	for _, u := range v.Order {
		if p := v.Parent[u]; p >= 0 && sub.Parent[p] != excludedParent {
			sub.Parent[u] = p
			size++
		}
	}
	sub.Order = make([]topology.NodeID, 0, size)
	// The subtree spans no more levels than v: its bounds fit after cs.
	cs := make([]int32, 0, size+1+len(v.sched.bounds))
	next := int32(1)
	for _, u := range v.Order {
		if sub.Parent[u] != excludedParent {
			cs = append(cs, next)
			next += int32(len(v.Children(u)))
			sub.Order = append(sub.Order, u)
		}
	}
	cs = append(cs, next)
	sub.sched.set(cs, topology.LevelBounds(cs, cs[len(cs):]))
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
// excluded nodes carry excludedParent, together with its sweep schedule.
// The child lists by node, in ID order, are a counting sort in hs's
// scratch; the BFS from the root over them writes Order, each node's
// position and each position's first child (the schedule's cs) in one
// pass. So the view owns three allocations — Parent, Order, and pos with
// cs — besides its level bounds, and Order doubles as its child lists.
func viewFromParents(parent []topology.NodeID, root topology.NodeID, hs *healScratch) *TreeView {
	n := len(parent)
	start := grow(hs.kidStart, n+1)
	hs.kidStart = start
	clear(start)
	included, nk := 0, 0
	for _, p := range parent {
		if p == excludedParent {
			continue
		}
		included++
		if p >= 0 { // every included node but the root
			start[p+1]++
			nk++
		}
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	fill := grow(hs.fill, n)
	hs.fill = fill
	copy(fill, start[:n])
	kids := grow(hs.kids, nk)
	hs.kids = kids
	for u, p := range parent {
		if p >= 0 {
			kids[fill[p]] = topology.NodeID(u)
			fill[p]++
		}
	}

	v := &TreeView{
		Root:   root,
		Parent: parent,
		Order:  make([]topology.NodeID, max(included, 1)),
	}
	posCS := make([]int32, n+len(v.Order)+1)
	cs := posCS[n:]
	v.pos = posCS[:n:n]
	for u := range v.pos {
		v.pos[u] = -1
	}
	v.Order[0] = root
	reached := 1
	for i := 0; i < reached; i++ {
		u := v.Order[i]
		v.pos[u], cs[i] = int32(i), int32(reached)
		for _, c := range kids[start[u]:start[u+1]] {
			v.Order[reached] = c
			reached++
		}
	}
	cs[reached] = int32(reached)
	v.Order, cs = v.Order[:reached], cs[:reached+1]
	v.first, v.kids = cs, v.Order
	v.sched.set(cs, topology.LevelBounds(cs, cs[len(cs):]))
	return v
}
