// Package topology builds sensor-network graphs and spanning trees.
//
// Fact 2.1 of the paper obtains O(log N) per-node communication for the
// primitive aggregates by running broadcast–convergecast on a
// *bounded-degree* spanning tree of the network (the remark after Fact 2.1
// notes bounded degree is what keeps the individual complexity low). This
// package provides the graph generators used by the experiments, BFS
// spanning trees, and a degree-bounding tree transformation.
package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// NodeID identifies a node; node 0 is the root by convention.
type NodeID int32

// Graph is an undirected graph in adjacency-list form.
type Graph struct {
	// Adj[u] lists the neighbours of u. Lists are sorted and duplicate-free.
	Adj [][]NodeID
	// Name describes the generator that produced the graph.
	Name string
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Adj) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return len(g.Adj[u]) }

// MaxDegree returns the maximum degree over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.Adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int {
	total := 0
	for _, nbrs := range g.Adj {
		total += len(nbrs)
	}
	return total / 2
}

// Connected reports whether the graph is connected (true for the empty graph).
func (g *Graph) Connected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// builder accumulates edges then freezes them into a Graph.
type builder struct {
	n   int
	adj []map[NodeID]struct{}
}

func newBuilder(n int) *builder {
	adj := make([]map[NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[NodeID]struct{})
	}
	return &builder{n: n, adj: adj}
}

func (b *builder) addEdge(u, v NodeID) {
	if u == v {
		return
	}
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
}

func (b *builder) graph(name string) *Graph {
	g := &Graph{Adj: make([][]NodeID, b.n), Name: name}
	for u, set := range b.adj {
		nbrs := make([]NodeID, 0, len(set))
		for v := range set {
			nbrs = append(nbrs, v)
		}
		slices.Sort(nbrs) // map order: a hub's list is long and shuffled
		g.Adj[u] = nbrs
	}
	return g
}

// Line returns the path graph 0-1-2-...-(n-1). The Set Disjointness
// reduction of Theorem 5.1 uses a line of 2n nodes.
func Line(n int) *Graph {
	b := newBuilder(n)
	for i := 0; i < n-1; i++ {
		b.addEdge(NodeID(i), NodeID(i+1))
	}
	return b.graph(fmt.Sprintf("line(%d)", n))
}

// Ring returns the cycle graph on n nodes.
func Ring(n int) *Graph {
	b := newBuilder(n)
	for i := 0; i < n; i++ {
		b.addEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.graph(fmt.Sprintf("ring(%d)", n))
}

// Star returns the star with node 0 at the centre — the degenerate topology
// where the root's degree is n-1 and per-node bounds require care.
func Star(n int) *Graph {
	b := newBuilder(n)
	for i := 1; i < n; i++ {
		b.addEdge(0, NodeID(i))
	}
	return b.graph(fmt.Sprintf("star(%d)", n))
}

// Complete returns the complete graph on n nodes (the “single-hop” model of
// Singh–Prasanna, where all nodes hear all).
func Complete(n int) *Graph {
	b := newBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.addEdge(NodeID(i), NodeID(j))
		}
	}
	return b.graph(fmt.Sprintf("complete(%d)", n))
}

// Grid returns the rows x cols 4-neighbour mesh, the classic sensor-field
// layout. Node (r,c) has ID r*cols+c.
func Grid(rows, cols int) *Graph {
	b := newBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.addEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.graph(fmt.Sprintf("grid(%dx%d)", rows, cols))
}

// DenseGrid returns the rows x cols 8-neighbour (Moore) mesh: the
// 4-neighbour grid plus both diagonals. Interior nodes have degree 8, so
// the graph is edge-rich — crashes rarely disconnect survivors, which
// makes it the benign end of the pathological-topology spectrum the
// scenario lab sweeps (a line is the other end).
func DenseGrid(rows, cols int) *Graph {
	b := newBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.addEdge(id(r, c), id(r+1, c))
				if c+1 < cols {
					b.addEdge(id(r, c), id(r+1, c+1))
				}
				if c > 0 {
					b.addEdge(id(r, c), id(r+1, c-1))
				}
			}
		}
	}
	return b.graph(fmt.Sprintf("densegrid(%dx%d)", rows, cols))
}

// Barbell returns the barbell graph on n nodes: two cliques of k = n/3
// nodes joined by a path of the remaining n-2k nodes. Every survivor in
// one bell can only reach the other through the bridge, so a single
// crash on the path partitions the network — the worst case for the
// self-healing tree repair, which has no alternate edges to graft
// through. Node 0 (the root) sits in the first clique. For n < 6 the
// graph degenerates to a line.
func Barbell(n int) *Graph {
	k := n / 3
	if k < 2 {
		g := Line(n)
		g.Name = fmt.Sprintf("barbell(%d)", n)
		return g
	}
	b := newBuilder(n)
	// First bell: clique on [0, k).
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.addEdge(NodeID(i), NodeID(j))
		}
	}
	// Second bell: clique on [n-k, n).
	for i := n - k; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.addEdge(NodeID(i), NodeID(j))
		}
	}
	// Bridge: path k-1, k, k+1, ..., n-k — the bell boundary nodes are the
	// path's endpoints, so the middle n-2k nodes all have degree 2.
	for i := k - 1; i < n-k; i++ {
		b.addEdge(NodeID(i), NodeID(i+1))
	}
	return b.graph(fmt.Sprintf("barbell(%d)", n))
}

// Torus returns the rows x cols mesh with wraparound edges.
func Torus(rows, cols int) *Graph {
	b := newBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.addEdge(id(r, c), id(r, (c+1)%cols))
			b.addEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.graph(fmt.Sprintf("torus(%dx%d)", rows, cols))
}

// BinaryTree returns the complete binary tree on n nodes with node 0 as the
// root (heap numbering).
func BinaryTree(n int) *Graph {
	b := newBuilder(n)
	for i := 1; i < n; i++ {
		b.addEdge(NodeID(i), NodeID((i-1)/2))
	}
	return b.graph(fmt.Sprintf("btree(%d)", n))
}

// Kinds lists the generator names Build accepts, in display order.
func Kinds() []string {
	return []string{"line", "ring", "star", "grid", "densegrid", "torus", "complete", "btree", "barbell", "rgg"}
}

// Build constructs the topology named by kind with ~n nodes (grid, dense
// grid, and torus round down to a square). The seed only matters for
// random geometric graphs. This is the single name→generator registry:
// the query engine, the scenario lab, and the CLIs all resolve topology
// names here, so a new generator becomes available everywhere at once.
func Build(kind string, n int, seed uint64) (*Graph, error) {
	side := int(math.Sqrt(float64(n)))
	switch kind {
	case "line":
		return Line(n), nil
	case "ring":
		return Ring(n), nil
	case "star":
		return Star(n), nil
	case "grid":
		return Grid(side, side), nil
	case "densegrid":
		return DenseGrid(side, side), nil
	case "torus":
		return Torus(side, side), nil
	case "complete":
		return Complete(n), nil
	case "btree":
		return BinaryTree(n), nil
	case "barbell":
		return Barbell(n), nil
	case "rgg":
		return RandomGeometric(n, 0, seed), nil
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (want one of %v)", kind, Kinds())
	}
}

// RandomGeometric places n nodes uniformly in the unit square and connects
// pairs within Euclidean distance radius — the standard random model of a
// radio sensor deployment. If radius <= 0 a connectivity-safe radius
// ~ sqrt(2 ln n / n) is chosen. The result is retried (with derived seeds)
// until connected; after maxTries attempts the radius is grown.
func RandomGeometric(n int, radius float64, seed uint64) *Graph {
	if n <= 0 {
		return newBuilder(0).graph("rgg(0)")
	}
	if radius <= 0 {
		radius = math.Sqrt(2 * math.Log(float64(n)+2) / float64(n))
	}
	const maxTries = 16
	for try := 0; ; try++ {
		rng := rand.New(rand.NewPCG(seed, uint64(try)))
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
		g := geometricGraph(xs, ys, radius, n)
		if g.Connected() {
			g.Name = fmt.Sprintf("rgg(%d,r=%.3f)", n, radius)
			return g
		}
		if try+1 >= maxTries {
			radius *= 1.25
		}
	}
}

func geometricGraph(xs, ys []float64, radius float64, n int) *Graph {
	// Bucket the unit square into cells of side radius so neighbour search
	// is near-linear rather than O(n^2).
	cells := int(1/radius) + 1
	grid := make(map[[2]int][]NodeID, n)
	cellOf := func(i int) [2]int {
		return [2]int{int(xs[i] / radius), int(ys[i] / radius)}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		grid[c] = append(grid[c], NodeID(i))
	}
	b := newBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				cc := [2]int{c[0] + dx, c[1] + dy}
				if cc[0] < 0 || cc[1] < 0 || cc[0] > cells || cc[1] > cells {
					continue
				}
				for _, j := range grid[cc] {
					if int(j) <= i {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.addEdge(NodeID(i), j)
					}
				}
			}
		}
	}
	return b.graph("rgg")
}
