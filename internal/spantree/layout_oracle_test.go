package spantree

// Reference oracle for the one child layout: the per-node child lists and
// depths topology.Tree kept before its children became Order ranges —
// BFSTree, rebuildFromParents and BoundDegree exactly as they built them —
// and the sweep schedule FastEngine.schedule derived lazily from a view's
// Order and child lists before every view carried its own, kept verbatim
// apart from the receiver. TestLayoutMatchesOracle (kernel_oracle_test.go)
// holds every tree's layout and every view's carried schedule to them from
// outside the package, where the view matrix is in reach.

import (
	"fmt"

	"sensoragg/internal/topology"
)

// OracleTree is a rooted spanning tree as topology laid it out before the
// position-order child starts: one child slice and one depth per node.
type OracleTree struct {
	Root     topology.NodeID
	Parent   []topology.NodeID
	Children [][]topology.NodeID
	Depth    []int
	Order    []topology.NodeID
}

// OracleBFSTree is the old topology.BFSTree.
func OracleBFSTree(g *topology.Graph, root topology.NodeID) *OracleTree {
	n := g.N()
	t := &OracleTree{
		Root:     root,
		Parent:   make([]topology.NodeID, n),
		Children: make([][]topology.NodeID, n),
		Depth:    make([]int, n),
		Order:    make([]topology.NodeID, 0, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited sentinel
	}
	t.Parent[root] = -1
	queue := []topology.NodeID{root}
	t.Order = append(t.Order, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj[u] {
			if t.Parent[v] != topology.NodeID(-2) {
				continue
			}
			t.Parent[v] = u
			t.Depth[v] = t.Depth[u] + 1
			t.Children[u] = append(t.Children[u], v)
			t.Order = append(t.Order, v)
			queue = append(queue, v)
		}
	}
	if len(t.Order) != n {
		panic(fmt.Sprintf("topology: BFSTree on disconnected graph (%d of %d reached)", len(t.Order), n))
	}
	return t
}

// OracleBoundDegree is the old topology.BoundDegree over an oracle tree.
func OracleBoundDegree(t *OracleTree, maxChildren int) *OracleTree {
	n := len(t.Parent)
	parent := make([]topology.NodeID, n)
	copy(parent, t.Parent)
	for u := 0; u < n; u++ {
		kids := t.Children[u]
		if len(kids) < maxChildren {
			continue
		}
		prev := kids[maxChildren-2]
		for _, c := range kids[maxChildren-1:] {
			parent[c] = prev
			prev = c
		}
	}
	nt, err := OracleFromParents(parent, t.Root)
	if err != nil {
		panic("topology: BoundDegree broke the tree: " + err.Error())
	}
	return nt
}

// OracleFromParents is the old topology.rebuildFromParents.
func OracleFromParents(parent []topology.NodeID, root topology.NodeID) (*OracleTree, error) {
	n := len(parent)
	t := &OracleTree{
		Root:     root,
		Parent:   parent,
		Children: make([][]topology.NodeID, n),
		Depth:    make([]int, n),
		Order:    make([]topology.NodeID, 0, n),
	}
	for u := 0; u < n; u++ {
		if topology.NodeID(u) == root {
			continue
		}
		p := parent[u]
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("topology: node %d has parent %d out of range", u, p)
		}
		t.Children[p] = append(t.Children[p], topology.NodeID(u))
	}
	queue := []topology.NodeID{root}
	t.Order = append(t.Order, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Children[u] {
			t.Depth[v] = t.Depth[u] + 1
			t.Order = append(t.Order, v)
			queue = append(queue, v)
		}
	}
	if len(t.Order) != n {
		return nil, fmt.Errorf("topology: parent array does not form a tree (%d of %d reachable)", len(t.Order), n)
	}
	return t, nil
}

// OracleViewLists is the child lists and BFS order of the view a parent
// array describes — excluded nodes carry excludedParent — as the old
// viewFromParents built them: children in ID order, Order BFS from the
// root.
func OracleViewLists(parent []topology.NodeID, root topology.NodeID) (children [][]topology.NodeID, order []topology.NodeID) {
	n := len(parent)
	children = make([][]topology.NodeID, n)
	included := 0
	for u := 0; u < n; u++ {
		if parent[u] == excludedParent {
			continue
		}
		included++
		if topology.NodeID(u) != root {
			children[parent[u]] = append(children[parent[u]], topology.NodeID(u))
		}
	}
	order = make([]topology.NodeID, 0, included)
	order = append(order, root)
	for qi := 0; qi < len(order); qi++ {
		order = append(order, children[order[qi]]...)
	}
	return children, order
}

// OracleSchedule is the schedule the engine derived on a view's first
// sweep: the child-position prefix sums over Order and each node's child
// list, the level bounds that fall out of them, and the widest level. It
// fails — instead of mis-merging — on an Order that is not the BFS of its
// child lists.
func OracleSchedule(root topology.NodeID, order []topology.NodeID, children func(topology.NodeID) []topology.NodeID) (cs, bounds []int32, width int, err error) {
	n := len(order)
	cs = make([]int32, n+1)
	next := 1
	for i, u := range order {
		cs[i] = int32(next)
		next += len(children(u))
	}
	cs[n] = int32(next)
	if n == 0 || order[0] != root {
		return nil, nil, 0, fmt.Errorf("spantree: view Order does not start at its root %d", root)
	}
	if next != n {
		return nil, nil, 0, fmt.Errorf("spantree: view Order lists %d nodes but their Children lists reach %d", n, next)
	}
	levels := 0
	for lo, hi := 0, 1; lo < n; lo, hi = hi, int(cs[hi]) {
		if hi <= lo {
			return nil, nil, 0, fmt.Errorf("spantree: view Order is not a BFS of its Children: positions from %d on are unreachable", lo)
		}
		levels++
		width = max(width, hi-lo)
	}
	bounds = make([]int32, levels+1)
	for l, b := 0, 1; l < levels; l, b = l+1, int(cs[b]) {
		bounds[l+1] = int32(b)
	}
	return cs, bounds, width, nil
}

// CarriedSchedule is the sweep schedule view v carries: its child starts,
// level bounds and widest level.
func CarriedSchedule(v *TreeView) (cs, bounds []int32, width int) {
	return v.sched.cs, v.sched.bounds, v.sched.width
}

// oracleView is the view over child lists that the old engine swept: its
// schedule derived from Order and the lists by OracleSchedule.
func oracleView(root topology.NodeID, parent, order []topology.NodeID, children [][]topology.NodeID) *TreeView {
	cs, bounds, _, err := OracleSchedule(root, order, func(u topology.NodeID) []topology.NodeID { return children[u] })
	if err != nil {
		panic(err)
	}
	pos := make([]int32, len(parent))
	for u := range pos {
		pos[u] = -1
	}
	for i, u := range order {
		pos[u] = int32(i)
	}
	v := &TreeView{Root: root, Parent: parent, Order: order, pos: pos, first: cs, kids: order}
	v.sched.set(cs, bounds)
	return v
}
