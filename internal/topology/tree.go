package topology

import (
	"fmt"
	"slices"
)

// Tree is a rooted spanning tree of a graph (Parent[root] == -1), laid out
// once in BFS positions: a node's children, and every level, are
// contiguous runs of Order. Children and Depth read that layout — one
// position per node, one child start per position, one bound per level —
// and its child starts and level bounds are a sweep schedule as they
// stand. Trees come from BFSTree, BoundDegree and FromParents and are
// immutable.
type Tree struct {
	Root   NodeID
	Parent []NodeID
	// Order lists nodes in BFS order from the root (root first), each
	// node's children in Children order. Reversed, it is a valid
	// convergecast schedule: every child precedes its parent.
	Order []NodeID
	Name  string

	// pos[u] is node u's position in Order. first[i] is the position of
	// Order[i]'s first child, so its children are Order[first[i]:first[i+1]],
	// and first[N] = N. levels[l] is the position level l starts at, and
	// levels[Height()+1] = N.
	pos, first, levels []int32
}

// N returns the number of nodes in the tree.
func (t *Tree) N() int { return len(t.Parent) }

// Children lists node u's children, in Order. The slice is shared with the
// tree and must not be modified.
func (t *Tree) Children(u NodeID) []NodeID {
	i := t.pos[u]
	return t.Order[t.first[i]:t.first[i+1]]
}

// Depth returns node u's hop distance from the root: the level its
// position falls in.
func (t *Tree) Depth(u NodeID) int {
	l, found := slices.BinarySearch(t.levels, t.pos[u])
	if !found {
		l--
	}
	return l
}

// Height returns the maximum depth of any node.
func (t *Tree) Height() int { return len(t.levels) - 2 }

// CSR returns the tree's layout: each node's position in Order, each
// position's first child (N+1 entries) and each level's first position
// (Height()+2 entries). The slices are shared and must not be modified.
func (t *Tree) CSR() (pos, first, levels []int32) { return t.pos, t.first, t.levels }

// MaxDegree returns the maximum tree degree (children + parent link).
func (t *Tree) MaxDegree() int {
	d := 0
	for i := range t.Order {
		d = max(d, int(t.first[i+1]-t.first[i])+min(i, 1)) // every node but the root has a parent link
	}
	return d
}

// Validate checks structural invariants: a single root, Order a
// permutation starting at it, child runs that tile the positions after
// the root, each after its parent's position and each naming its parent,
// and level bounds that follow from the child starts.
func (t *Tree) Validate() error {
	n := t.N()
	if n == 0 {
		return fmt.Errorf("topology: empty tree")
	}
	if t.Root < 0 || int(t.Root) >= n {
		return fmt.Errorf("topology: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("topology: root has parent %d", t.Parent[t.Root])
	}
	if len(t.Order) != n || len(t.pos) != n || len(t.first) != n+1 || t.first[0] != 1 || t.first[n] != int32(n) {
		return fmt.Errorf("topology: inconsistent slice lengths or child starts")
	}
	for i, u := range t.Order {
		if u < 0 || int(u) >= n || t.pos[u] != int32(i) {
			return fmt.Errorf("topology: bad order entry %d at %d", u, i)
		}
	}
	if t.Order[0] != t.Root {
		return fmt.Errorf("topology: order does not start at root")
	}
	for i, u := range t.Order {
		lo, hi := t.first[i], t.first[i+1]
		if lo <= int32(i) || hi < lo {
			return fmt.Errorf("topology: children of node %d at positions [%d, %d) do not follow its position %d", u, lo, hi, i)
		}
		for _, c := range t.Order[lo:hi] {
			if t.Parent[c] != u {
				return fmt.Errorf("topology: node %d listed under %d, has parent %d", c, u, t.Parent[c])
			}
		}
	}
	if !slices.Equal(t.levels, LevelBounds(t.first, nil)) {
		return fmt.Errorf("topology: level bounds %v disagree with the child starts", t.levels)
	}
	return nil
}

// newTree returns a tree over parent with its layout allocated and Order
// empty, ready for a BFS to fill.
func newTree(parent []NodeID, root NodeID, name string) *Tree {
	n := len(parent)
	posFirst := make([]int32, 2*n+1)
	return &Tree{
		Root:   root,
		Parent: parent,
		Order:  make([]NodeID, 0, n),
		Name:   name,
		pos:    posFirst[:n:n],
		first:  posFirst[n:],
	}
}

// visit records position i of the BFS: Order[i]'s position, and its first
// child at the end of Order, where the caller appends its children next.
func (t *Tree) visit(i int) NodeID {
	u := t.Order[i]
	t.pos[u], t.first[i] = int32(i), int32(len(t.Order))
	return u
}

// LevelBounds returns the level bounds of a BFS layout from its child
// starts: level l+1 starts at the first child of level l's first position,
// so the bounds are 0, first[0], first[first[0]], … up to N. They fill
// dst's capacity when it has room for them, else a fresh slice.
func LevelBounds(first, dst []int32) []int32 {
	n := int32(len(first) - 1)
	levels := 1
	for b := first[0]; b < n; b = first[b] {
		levels++
	}
	if cap(dst) < levels+1 {
		dst = make([]int32, levels+1)
	}
	bounds := dst[:levels+1]
	bounds[0] = 0
	for l := 1; l <= levels; l++ {
		bounds[l] = first[bounds[l-1]]
	}
	return bounds
}

// BFSTree returns the breadth-first spanning tree of g rooted at root, each
// node's children in adjacency order. It panics if g is disconnected
// (callers validate connectivity first).
func BFSTree(g *Graph, root NodeID) *Tree {
	n := g.N()
	t := newTree(make([]NodeID, n), root, "bfs("+g.Name+")")
	for i := range t.Parent {
		t.Parent[i] = -2 // unvisited sentinel
	}
	t.Parent[root] = -1
	t.Order = append(t.Order, root)
	for i := 0; i < len(t.Order); i++ {
		u := t.visit(i)
		for _, v := range g.Adj[u] {
			if t.Parent[v] != NodeID(-2) {
				continue
			}
			t.Parent[v] = u
			t.Order = append(t.Order, v)
		}
	}
	if len(t.Order) != n {
		panic(fmt.Sprintf("topology: BFSTree on disconnected graph (%d of %d reached)", len(t.Order), n))
	}
	t.first[n] = int32(n)
	t.levels = LevelBounds(t.first, nil)
	return t
}

// BoundDegree rewrites t so that no node has more than maxChildren children
// (hence tree degree at most maxChildren+1), by chaining surplus children:
// each node retains at most maxChildren-1 of its original children and the
// rest form a descending chain, so every node gains at most one chain link.
// This realizes the bounded-degree tree the remark after Fact 2.1 requires:
// per-node communication in convergecast is proportional to tree degree, so
// the root of a star would otherwise pay Θ(N) even for COUNT. Height can
// grow by a factor of O(origDegree/maxChildren).
func BoundDegree(t *Tree, maxChildren int) *Tree {
	if maxChildren < 2 {
		panic("topology: maxChildren must be >= 2")
	}
	n := t.N()
	parent := make([]NodeID, n)
	copy(parent, t.Parent)
	for u := 0; u < n; u++ {
		kids := t.Children(NodeID(u))
		if len(kids) < maxChildren {
			continue
		}
		// Retain k[0..maxChildren-2] under u; chain the surplus below the
		// last retained child. Every node appears in exactly one original
		// child list, so it can gain at most one chain child, keeping its
		// total at (maxChildren-1) retained + 1 chained = maxChildren.
		prev := kids[maxChildren-2]
		for _, c := range kids[maxChildren-1:] {
			parent[c] = prev
			prev = c
		}
	}
	nt, err := rebuildFromParents(parent, t.Root, "degbound("+t.Name+")")
	if err != nil {
		// The chaining transformation preserves tree-ness by construction.
		panic("topology: BoundDegree broke the tree: " + err.Error())
	}
	return nt
}

// FromParents builds a rooted tree from a parent array (Parent[root] must
// be -1) and validates it. Child order follows node ID order.
func FromParents(parent []NodeID, root NodeID, name string) (*Tree, error) {
	if int(root) >= len(parent) || root < 0 {
		return nil, fmt.Errorf("topology: root %d out of range", root)
	}
	if parent[root] != -1 {
		return nil, fmt.Errorf("topology: parent of root is %d, want -1", parent[root])
	}
	t, err := rebuildFromParents(parent, root, name)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuildFromParents lays out the tree a parent array describes, each
// node's children in ID order: a counting sort groups the nodes by parent,
// and a BFS from the root over the groups writes Order and the layout.
func rebuildFromParents(parent []NodeID, root NodeID, name string) (*Tree, error) {
	n := len(parent)
	start := make([]int32, n+1)
	for u, p := range parent {
		if NodeID(u) == root {
			continue
		}
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("topology: node %d has parent %d out of range", u, p)
		}
		start[p+1]++
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	t := newTree(parent, root, name)
	kids, fill := make([]NodeID, n), t.pos // pos is scratch until the BFS writes it
	copy(fill, start[:n])
	for u, p := range parent {
		if NodeID(u) != root {
			kids[fill[p]] = NodeID(u)
			fill[p]++
		}
	}
	t.Order = append(t.Order, root)
	for i := 0; i < len(t.Order); i++ {
		u := t.visit(i)
		t.Order = append(t.Order, kids[start[u]:start[u+1]]...)
	}
	if len(t.Order) != n {
		return nil, fmt.Errorf("topology: parent array does not form a tree (%d of %d reachable)", len(t.Order), n)
	}
	t.first[n] = int32(n)
	t.levels = LevelBounds(t.first, nil)
	return t, nil
}
