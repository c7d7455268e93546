package topology

import (
	"slices"
	"testing"
)

func TestGeneratorsShape(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		wantN     int
		wantEdges int
		wantMaxD  int
	}{
		{"line", Line(10), 10, 9, 2},
		{"ring", Ring(10), 10, 10, 2},
		{"star", Star(10), 10, 9, 9},
		{"grid", Grid(3, 4), 12, 17, 4},
		{"torus", Torus(3, 4), 12, 24, 4},
		{"btree", BinaryTree(7), 7, 6, 3},
		{"complete", Complete(5), 5, 10, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.N(); got != tt.wantN {
				t.Errorf("N = %d, want %d", got, tt.wantN)
			}
			if got := tt.g.Edges(); got != tt.wantEdges {
				t.Errorf("Edges = %d, want %d", got, tt.wantEdges)
			}
			if got := tt.g.MaxDegree(); got != tt.wantMaxD {
				t.Errorf("MaxDegree = %d, want %d", got, tt.wantMaxD)
			}
			if !tt.g.Connected() {
				t.Error("generator produced a disconnected graph")
			}
		})
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	for _, n := range []int{10, 100, 500} {
		g := RandomGeometric(n, 0, uint64(n))
		if g.N() != n {
			t.Fatalf("N = %d, want %d", g.N(), n)
		}
		if !g.Connected() {
			t.Errorf("rgg(%d) disconnected", n)
		}
	}
}

func TestRandomGeometricDeterministic(t *testing.T) {
	a := RandomGeometric(100, 0, 42)
	b := RandomGeometric(100, 0, 42)
	if a.Edges() != b.Edges() {
		t.Fatal("same seed produced different graphs")
	}
	for u := range a.Adj {
		if len(a.Adj[u]) != len(b.Adj[u]) {
			t.Fatalf("node %d neighbour counts differ", u)
		}
		for i := range a.Adj[u] {
			if a.Adj[u][i] != b.Adj[u][i] {
				t.Fatalf("node %d neighbours differ", u)
			}
		}
	}
}

func TestBFSTreeProperties(t *testing.T) {
	graphs := []*Graph{Line(20), Ring(21), Grid(5, 5), Star(30), RandomGeometric(80, 0, 9), Complete(12)}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			tr := BFSTree(g, 0)
			if err := tr.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			// BFS depths are shortest-path distances: every tree edge spans
			// adjacent graph nodes and depth(child) = depth(parent)+1.
			for u := 1; u < g.N(); u++ {
				p := tr.Parent[u]
				found := false
				for _, v := range g.Adj[u] {
					if v == p {
						found = true
					}
				}
				if !found {
					t.Fatalf("tree edge %d-%d not a graph edge", u, p)
				}
			}
		})
	}
}

func TestBFSTreeDepthsAreDistances(t *testing.T) {
	// On a line rooted at 0, depth of node i must be i.
	tr := BFSTree(Line(15), 0)
	for i := 0; i < 15; i++ {
		if tr.Depth(NodeID(i)) != i {
			t.Errorf("Depth(%d) = %d, want %d", i, tr.Depth(NodeID(i)), i)
		}
	}
	if tr.Height() != 14 {
		t.Errorf("Height = %d, want 14", tr.Height())
	}
}

// TestLevelBoundsFillsDst: the bounds of a BFS layout start every level
// at its first position, go into dst's spare capacity when it has room,
// and into a fresh slice when it does not.
func TestLevelBoundsFillsDst(t *testing.T) {
	tr := BFSTree(Grid(4, 4), 0) // levels 0..6 of 1,2,3,4,3,2,1 nodes
	_, first, levels := tr.CSR()
	want := []int32{0, 1, 3, 6, 10, 13, 15, 16}
	if got := LevelBounds(first, nil); !slices.Equal(got, want) || !slices.Equal(levels, want) {
		t.Fatalf("LevelBounds = %v, tree's %v; want %v", got, levels, want)
	}
	buf := make([]int32, 3, 3+len(want))
	got := LevelBounds(first, buf[3:])
	if !slices.Equal(got, want) || &got[0] != &buf[:4][3] {
		t.Errorf("LevelBounds = %v, not in dst's capacity", got)
	}
	if got := LevelBounds(first, make([]int32, 0, 2)); !slices.Equal(got, want) {
		t.Errorf("LevelBounds over a short dst = %v, want %v", got, want)
	}
}

func TestBoundDegree(t *testing.T) {
	for _, maxKids := range []int{2, 3, 8} {
		for _, g := range []*Graph{Star(100), Complete(40), Grid(8, 8), RandomGeometric(150, 0.3, 4)} {
			tr := BFSTree(g, 0)
			bounded := BoundDegree(tr, maxKids)
			if err := bounded.Validate(); err != nil {
				t.Fatalf("maxKids=%d %s: Validate: %v", maxKids, g.Name, err)
			}
			for u := range bounded.N() {
				if kids := bounded.Children(NodeID(u)); len(kids) > maxKids {
					t.Fatalf("maxKids=%d %s: node %d has %d children", maxKids, g.Name, u, len(kids))
				}
			}
			if bounded.N() != tr.N() {
				t.Fatalf("node count changed: %d -> %d", tr.N(), bounded.N())
			}
		}
	}
}

func TestBoundDegreeStarHeight(t *testing.T) {
	// Star with cap 2: surplus children chain, height grows to ~n-1; the
	// per-node degree bound is what Fact 2.1 needs, height is the price.
	tr := BoundDegree(BFSTree(Star(10), 0), 2)
	if got := tr.MaxDegree(); got > 3 {
		t.Errorf("MaxDegree = %d, want <= 3", got)
	}
	if tr.Height() < 5 {
		t.Errorf("expected chained height, got %d", tr.Height())
	}
}

func TestFromParentsRejectsBadInput(t *testing.T) {
	if _, err := FromParents([]NodeID{-1, 0, 1, 5}, 0, "bad"); err == nil {
		t.Error("out-of-range parent accepted")
	}
	// Cycle: 1->2->1.
	if _, err := FromParents([]NodeID{-1, 2, 1}, 0, "cycle"); err == nil {
		t.Error("cycle accepted")
	}
	if _, err := FromParents([]NodeID{0, 0}, 0, "rootparent"); err == nil {
		t.Error("root with parent accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := BFSTree(Grid(4, 4), 0)
	if err := tr.Validate(); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	corrupt := map[string]func(tr *Tree){
		"depth": func(tr *Tree) { tr.levels[2]++ },
		// A forest: the root keeps no children, so nothing below it is
		// reachable, while the deepest node claims every other position.
		"forest": func(tr *Tree) {
			for i := 1; i < tr.N(); i++ {
				tr.first[i] = 1
			}
		},
		"parent": func(tr *Tree) { tr.Parent[tr.Order[5]] = tr.Order[1] },
		"order":  func(tr *Tree) { tr.Order[3], tr.Order[4] = tr.Order[4], tr.Order[3] },
	}
	for name, f := range corrupt {
		tr := BFSTree(Grid(4, 4), 0)
		f(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("corrupted %s not detected", name)
		}
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := newBuilder(4)
	b.addEdge(0, 1)
	b.addEdge(2, 3)
	g := b.graph("twopairs")
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	defer func() {
		if recover() == nil {
			t.Error("BFSTree on disconnected graph should panic")
		}
	}()
	BFSTree(g, 0)
}

// TestPathologicalShapes pins the shape invariants of the scenario lab's
// pathological generators: exact node/edge/degree structure, not just
// connectivity, so a generator change that silently alters the stress
// profile (a lost diagonal, a widened bridge) fails here first.
func TestPathologicalShapes(t *testing.T) {
	t.Run("barbell", func(t *testing.T) {
		n := 12
		g := Barbell(n) // k=4: cliques [0,4) and [8,12), bridge 3-4-5-6-7-8
		k := n / 3
		if g.N() != n || !g.Connected() {
			t.Fatalf("barbell(%d): N=%d connected=%v", n, g.N(), g.Connected())
		}
		wantEdges := k*(k-1) + (n - 2*k + 1) // two cliques + bridge path
		if g.Edges() != wantEdges {
			t.Fatalf("barbell(%d): %d edges, want %d", n, g.Edges(), wantEdges)
		}
		// Both bells are cliques: every pair inside [0,k) and [n-k,n).
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if !hasEdge(g, NodeID(i), NodeID(j)) || !hasEdge(g, NodeID(n-1-i), NodeID(n-1-j)) {
					t.Fatalf("bell pair (%d,%d) missing", i, j)
				}
			}
		}
		// The interior bridge nodes have degree exactly 2; the bell
		// boundary nodes k-1 and n-k carry the clique degree plus one
		// bridge edge.
		for u := k; u < n-k; u++ {
			if g.Degree(NodeID(u)) != 2 {
				t.Fatalf("bridge node %d degree %d, want 2", u, g.Degree(NodeID(u)))
			}
		}
		if g.Degree(NodeID(k-1)) != k || g.Degree(NodeID(n-k)) != k {
			t.Fatalf("boundary degrees %d/%d, want %d", g.Degree(NodeID(k-1)), g.Degree(NodeID(n-k)), k)
		}
		// Tiny barbells degenerate to a line instead of panicking.
		if g := Barbell(4); g.N() != 4 || g.Edges() != 3 || !g.Connected() {
			t.Fatalf("barbell(4) degenerate line broken: %+v", g)
		}
	})
	t.Run("densegrid", func(t *testing.T) {
		g := DenseGrid(3, 4)
		if g.N() != 12 || !g.Connected() {
			t.Fatalf("densegrid(3x4): N=%d connected=%v", g.N(), g.Connected())
		}
		// 9 horizontal + 8 vertical + 12 diagonal edges.
		if g.Edges() != 29 {
			t.Fatalf("densegrid(3x4): %d edges, want 29", g.Edges())
		}
		// Corners see 3 neighbours, edge-midpoints 5, interior nodes 8.
		if d := g.Degree(0); d != 3 {
			t.Fatalf("corner degree %d, want 3", d)
		}
		if d := g.Degree(1); d != 5 {
			t.Fatalf("edge-midpoint degree %d, want 5", d)
		}
		if d := g.Degree(NodeID(1*4 + 1)); d != 8 {
			t.Fatalf("interior degree %d, want 8", d)
		}
		if g.MaxDegree() != 8 {
			t.Fatalf("max degree %d, want 8", g.MaxDegree())
		}
	})
}

// TestBuildRegistry: every named kind resolves, is deterministic, and an
// unknown kind reports the roster.
func TestBuildRegistry(t *testing.T) {
	for _, kind := range Kinds() {
		g, err := Build(kind, 25, 7)
		if err != nil {
			t.Fatalf("Build(%q): %v", kind, err)
		}
		if g.N() == 0 || !g.Connected() {
			t.Fatalf("Build(%q): N=%d connected=%v", kind, g.N(), g.Connected())
		}
		h, err := Build(kind, 25, 7)
		if err != nil || h.Edges() != g.Edges() {
			t.Fatalf("Build(%q) not deterministic: %d vs %d edges (%v)", kind, g.Edges(), h.Edges(), err)
		}
	}
	if _, err := Build("moebius", 25, 7); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func hasEdge(g *Graph, u, v NodeID) bool {
	for _, w := range g.Adj[u] {
		if w == v {
			return true
		}
	}
	return false
}
