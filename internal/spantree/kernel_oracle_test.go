package spantree_test

// Reference oracle for the reliable convergecast kernel: gatherVecDirect
// and levelSchedule exactly as they were before the position-indexed
// rewrite (partials addressed by node ID — one k-word arena slot and one
// vbits cell per node — and levels as appended per-depth slices), kept
// verbatim apart from package qualifiers and its worker fan-out — it now
// sweeps every level in one piece, which never changed its output — so the
// identity tests below can hold the production kernel to them bit for bit. It speaks LocalVec,
// MergeVec and VecBits, never FoldVec, so it checks the production fold
// from outside — for the scalar combiners, which ride the kernel at width
// 1 and 2, too. Their boxed twins are the oracle of internal/agg's
// boxed_oracle_test.go.
// The oracle lives outside the package: it needs nothing unexported, and
// from here it can drive the real agg combiners.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// oracleEngine is the reliable half of the old FastEngine: an Ops over a
// view whose scratch is sized by N and indexed by node ID.
type oracleEngine struct {
	nw   *netsim.Network
	view *spantree.TreeView
	sc   *oracleScratch
}

type oracleScratch struct {
	levels [][]topology.NodeID
	vec    []uint64
	vbits  []int32
}

func newOracle(nw *netsim.Network, view *spantree.TreeView) *oracleEngine {
	return &oracleEngine{nw: nw, view: view, sc: &oracleScratch{}}
}

func (e *oracleEngine) Network() *netsim.Network { return e.nw }

// Broadcast charges every tree edge of the view on its own: the per-edge
// definition the flat broadcast passes must add up to.
func (e *oracleEngine) Broadcast(p wire.Payload, apply spantree.Applier) {
	for _, u := range e.view.Order {
		if u != e.view.Root {
			e.nw.Meter.Charge(e.view.Parent[u], u, p.Bits())
		}
		if apply != nil {
			apply(e.nw.Nodes[u], p)
		}
	}
}

// Convergecast is not the oracle's: agg runs every Fact 2.1 protocol and
// the probe plane as vector convergecasts.
func (e *oracleEngine) Convergecast(c spantree.Combiner) (any, error) {
	return nil, fmt.Errorf("oracle: %T is not a vector combiner", c)
}

// ConvergecastVec runs the old engine's vector kernel.
func (e *oracleEngine) ConvergecastVec(vc spantree.VecCombiner) ([]uint64, error) {
	return e.convergecastVec(vc)
}

func (e *oracleEngine) convergecastVec(vc spantree.VecCombiner) ([]uint64, error) {
	k := vc.VecWidth()
	if k <= 0 {
		return nil, fmt.Errorf("spantree: vector combiner width %d", k)
	}
	v := e.view
	n := len(v.Parent)
	if cap(e.sc.vec) < n*k {
		e.sc.vec = make([]uint64, n*k)
	}
	vec := e.sc.vec[:n*k]
	if cap(e.sc.vbits) < n {
		e.sc.vbits = make([]int32, n)
	}
	vbits := e.sc.vbits[:n]
	levels := e.levelSchedule()
	for li := len(levels) - 1; li >= 0; li-- {
		for _, u := range levels[li] {
			e.gatherVecDirect(u, vc, k, vec, vbits)
		}
	}
	root := int(v.Root)
	return vec[root*k : root*k+k], nil
}

// gatherVecDirect runs one node's step on the reliable vector path: merge
// the children's partials straight out of the arena, then price this
// node's own send with VecBits, charging send and receive sides in one
// meter-cell visit. Values and meters are byte-identical to the encoding
// paths (VecBits == len(AppendVec), merge input == decoded payload),
// which the engine-variant identity tests assert.
func (e *oracleEngine) gatherVecDirect(u topology.NodeID, vc spantree.VecCombiner, k int, vec []uint64, vbits []int32) {
	acc := vec[int(u)*k : int(u)*k+k]
	vc.LocalVec(e.nw.Nodes[u], acc)
	recvBits := 0
	for _, child := range e.view.Children(u) {
		recvBits += int(vbits[child])
		vc.MergeVec(acc, vec[int(child)*k:int(child)*k+k])
	}
	sentBits := -1
	if u != e.view.Root {
		if plan := e.nw.Faults; plan != nil && plan.Byzantine(u) {
			vc.CorruptVec(acc, plan.LieWord(u))
		}
		sentBits = vc.VecBits(acc)
		vbits[u] = int32(sentBits)
	}
	e.nw.Meter.ChargeNodeSeq(u, sentBits, recvBits)
}

// levelSchedule groups the view's nodes by depth, each level in BFS order.
// The view is immutable for the engine's lifetime, so the grouping is
// computed once.
func (e *oracleEngine) levelSchedule() [][]topology.NodeID {
	if e.sc.levels != nil {
		return e.sc.levels
	}
	v := e.view
	depth := make([]int, len(v.Parent))
	maxd := 0
	for _, u := range v.Order {
		if u == v.Root {
			continue
		}
		depth[u] = depth[v.Parent[u]] + 1
		if depth[u] > maxd {
			maxd = depth[u]
		}
	}
	levels := make([][]topology.NodeID, maxd+1)
	for _, u := range v.Order {
		levels[depth[u]] = append(levels[depth[u]], u)
	}
	e.sc.levels = levels
	return levels
}

// --- the generated matrix ---

// randomTree is a uniformly attached random tree: node i hangs off a
// random earlier node, so depths and fan-outs are irregular in a way no
// grid or line is.
func randomTree(n int, seed uint64) *topology.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x7ee))
	adj := make([][]topology.NodeID, n)
	for i := 1; i < n; i++ {
		p := rng.IntN(i)
		adj[p] = append(adj[p], topology.NodeID(i)) // ascending: i only grows
		adj[i] = append(adj[i], topology.NodeID(p)) // first entry, below every later child
	}
	return &topology.Graph{Adj: adj, Name: fmt.Sprintf("randtree(%d)", n)}
}

var matrixSizes = []int{1, 2, 7, 64, 1500}

func matrixGraphs(n int) []*topology.Graph {
	rows := map[int]int{1: 1, 2: 1, 7: 1, 64: 8, 1500: 30}[n]
	return []*topology.Graph{
		topology.Grid(rows, n/rows),
		topology.Line(n),
		topology.Star(n),
		topology.Barbell(n),
		randomTree(n, uint64(n)),
	}
}

// netPair builds two indistinguishable faulty networks: same graph, items,
// seeds and fault plan, one for the production engine and one for the
// oracle.
func netPair(g *topology.Graph, spec faults.Spec, seed uint64) (nw, ref *netsim.Network) {
	mk := func() *netsim.Network {
		items := make([][]uint64, g.N())
		for i := range items {
			// One reading per node, three on every fifth: both LocalVec
			// shapes, and values spread over the 10-bit domain.
			items[i] = []uint64{uint64(i*37) % 1000}
			if i%5 == 4 {
				items[i] = append(items[i], uint64(i)%1000, 999-uint64(i)%1000)
			}
		}
		nw := netsim.NewMulti(g, items, 1023, netsim.WithSeed(seed))
		if spec.Active() {
			nw.Faults = faults.New(spec, nw.N(), nw.Root(), seed)
		}
		return nw
	}
	return mk(), mk()
}

// viewCase is one row of the view axis: a production engine and an oracle
// engine over the same view of twin networks.
type viewCase struct {
	name    string
	nw, ref *netsim.Network
	fe      *spantree.FastEngine
	or      *oracleEngine
}

// viewCases generates the view axis for one graph under the run-long
// faults of base (Byz, Drop, Dup): the full view, the healed view of a
// crash+linkfail plan, the view re-healed after a mid-sweep strike
// (re-rooted when the strike kills the root), and the SubtreeView of every
// root child of the healed view — those last on one shared network pair,
// the way byz.RobustNet runs its sectors.
func viewCases(t *testing.T, g *topology.Graph, base faults.Spec, workers int, seed uint64) []viewCase {
	t.Helper()
	var cases []viewCase
	add := func(name string, nw, ref *netsim.Network, view, refView *spantree.TreeView) {
		if view != nil && !view.Equal(refView) {
			t.Fatalf("%s/%s: twin networks disagree on the view", g.Name, name)
		}
		var fe *spantree.FastEngine
		if view == nil {
			fe, refView = spantree.NewFast(nw), spantree.FullView(ref.Tree)
		} else {
			fe = spantree.NewFastView(nw, view)
		}
		fe.SetWorkers(workers)
		cases = append(cases, viewCase{name: name, nw: nw, ref: ref, fe: fe, or: newOracle(ref, refView)})
	}
	heal := func(nw *netsim.Network) *spantree.TreeView {
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			t.Fatalf("%s: heal: %v", g.Name, err)
		}
		return hr.View
	}

	nw, ref := netPair(g, base, seed)
	add("full", nw, ref, nil, nil)

	structural := base
	structural.Crash, structural.LinkFail = 0.05, 0.05
	nw, ref = netPair(g, structural, seed)
	healed, refHealed := heal(nw), heal(ref)
	add("healed", nw, ref, healed, refHealed)
	for _, c := range healed.Children(healed.Root) {
		add(fmt.Sprintf("sector(%d)", c), nw, ref, spantree.SubtreeView(healed, c), spantree.SubtreeView(refHealed, c))
	}

	phased := structural
	phased.MidAt, phased.MidCrash, phased.MidLinkFail = 1, 0.05, 0.03
	phased.MidKillRoot = g.N()%2 == 0 && g.N() > 2
	nw, ref = netPair(g, phased, seed)
	heal(nw)
	heal(ref)
	if !nw.Faults.Tick() || !ref.Faults.Tick() {
		t.Fatalf("%s: phased faults did not fire", g.Name)
	}
	hr, root, err := spantree.HealRerooted(nw)
	if err != nil {
		t.Fatalf("%s: re-heal: %v", g.Name, err)
	}
	refHr, _, err := spantree.HealRerooted(ref)
	if err != nil {
		t.Fatalf("%s: re-heal: %v", g.Name, err)
	}
	if phased.MidKillRoot == (root == nw.Tree.Root) {
		t.Fatalf("%s: acting root %d, kill-root %v", g.Name, root, phased.MidKillRoot)
	}
	add("rehealed", nw, ref, hr.View, refHr.View)
	return cases
}

// requireSameMeters asserts the twin networks' per-node counters agree.
func requireSameMeters(t *testing.T, where string, nw, ref *netsim.Network) {
	t.Helper()
	for u := 0; u < nw.N(); u++ {
		id := topology.NodeID(u)
		if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) ||
			nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
			nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
			t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, oracle %d/%d/%d", where, u,
				nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
				ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
		}
	}
}

// chainPreds is the ⊆-chain of k ascending thresholds over the test
// domain — the shape every selection sweep probes.
func chainPreds(k int) []wire.Pred {
	preds := make([]wire.Pred, k)
	for i := range preds {
		preds[i] = wire.Less(uint64(i+1) * 1000 / uint64(k+1))
	}
	return preds
}

// runCombiners drives every combiner of the matrix through one agg.Net and
// returns the root values in a fixed order. The agg protocols broadcast
// before they convergecast, so the flat broadcast passes are compared too.
func runCombiners(n *agg.Net) []any {
	var out []any
	out = append(out, n.Count(core.Linear, wire.Less(500)))
	out = append(out, n.Sum(core.Linear, wire.True()))
	lo, hi, ok := n.MinMax(core.Linear)
	out = append(out, [3]any{lo, hi, ok})
	for _, k := range []int{1, 8, 64} {
		out = append(out, n.CountVec(core.Linear, chainPreds(k), nil))
	}
	// An unnested probe set takes the general (non-delta) vector codec.
	out = append(out, n.CountVec(core.Linear, []wire.Pred{wire.Less(700), wire.Less(100), wire.True()}, nil))
	c, s, flo, fhi, fok := n.MultiAggregate(core.Linear, wire.Less(800))
	out = append(out, [5]any{c, s, flo, fhi, fok})
	lo, hi, ok = n.MinMax(core.LogDomain)
	out = append(out, [3]any{lo, hi, ok})
	return out
}

// TestKernelsMatchOracle holds the position-indexed kernels to the
// node-indexed ones: root value and every node's sent/recv/msgs, over
// topology × N × view × combiner × byz × workers.
func TestKernelsMatchOracle(t *testing.T) {
	ops := 0
	for _, n := range matrixSizes {
		for gi, g := range matrixGraphs(n) {
			for _, byz := range []float64{0, 0.1} {
				for _, workers := range []int{1, 3} {
					for _, vc := range viewCases(t, g, faults.Spec{Byz: byz}, workers, uint64(7+gi)) {
						where := fmt.Sprintf("%s/%s/byz=%g/workers=%d", g.Name, vc.name, byz, workers)
						requireSameMeters(t, where+" (setup)", vc.nw, vc.ref)
						got := runCombiners(agg.NewNet(vc.fe))
						want := runCombiners(agg.NewNet(vc.or))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: root values\n got %v\nwant %v", where, got, want)
						}
						requireSameMeters(t, where, vc.nw, vc.ref)
						ops += len(got)
					}
				}
			}
		}
	}
	if ops < 5000 {
		t.Fatalf("matrix too small: %d convergecasts", ops)
	}
}

// TestOrderChildrenContiguous pins the invariant the position sweep leans
// on, for every constructor that emits an Order — topology.BFSTree,
// rebuildFromParents (BoundDegree's output, the tree every network runs
// on), viewFromParents (heal and re-heal) and SubtreeView: Order[0] is the
// root, and the children of Order[i] are the next unclaimed positions, in
// Children order. A node outside the view has no children in it.
func TestOrderChildrenContiguous(t *testing.T) {
	check := func(where string, v *spantree.TreeView) {
		t.Helper()
		if len(v.Order) == 0 || v.Order[0] != v.Root {
			t.Fatalf("%s: Order does not start at the root", where)
		}
		next := 1
		for i, u := range v.Order {
			for j, c := range v.Children(u) {
				if next+j >= len(v.Order) || v.Order[next+j] != c {
					t.Fatalf("%s: child %d of Order[%d]=%d is not at position %d", where, c, i, u, next+j)
				}
			}
			next += len(v.Children(u))
		}
		if next != len(v.Order) {
			t.Fatalf("%s: children cover %d positions, Order has %d", where, next, len(v.Order))
		}
		for u := range v.Parent {
			if id := topology.NodeID(u); !v.Includes(id) && v.Children(id) != nil {
				t.Fatalf("%s: node %d is outside the view but has children %v", where, u, v.Children(id))
			}
		}
	}
	for _, n := range matrixSizes {
		for gi, g := range matrixGraphs(n) {
			check(g.Name+"/bfs", spantree.FullView(topology.BFSTree(g, 0)))
			for _, vc := range viewCases(t, g, faults.Spec{}, 1, uint64(7+gi)) {
				check(g.Name+"/"+vc.name, vc.fe.View())
			}
		}
	}
}

// TestLayoutMatchesOracle holds the one child layout to what it replaced,
// over topology × N × view: every tree's Children, Depth, Height,
// MaxDegree and CSR to topology's old per-node child lists and depths
// (BFSTree, and BoundDegree over it), and every view's Children — nil
// outside the view — and carried schedule to the ID-ordered child lists
// of its parent array and the schedule the engine used to derive from
// them on first sweep.
func TestLayoutMatchesOracle(t *testing.T) {
	for _, n := range matrixSizes {
		for gi, g := range matrixGraphs(n) {
			bfs, ob := topology.BFSTree(g, 0), spantree.OracleBFSTree(g, 0)
			checkTreeLayout(t, g.Name+"/bfs", bfs, ob)
			for _, k := range []int{2, 3, 8} {
				checkTreeLayout(t, fmt.Sprintf("%s/bound%d", g.Name, k), topology.BoundDegree(bfs, k), spantree.OracleBoundDegree(ob, k))
			}
			checkViewLayout(t, g.Name+"/bfs-view", spantree.FullView(bfs), ob.Children)
			for _, vc := range viewCases(t, g, faults.Spec{}, 1, uint64(7+gi)) {
				v := vc.fe.View()
				children, order := spantree.OracleViewLists(v.Parent, v.Root)
				if !slices.Equal(v.Order, order) {
					t.Fatalf("%s/%s: Order %v, oracle %v", g.Name, vc.name, v.Order, order)
				}
				checkViewLayout(t, g.Name+"/"+vc.name, v, children)
			}
		}
	}
}

// checkTreeLayout compares tree tr with the oracle's o node by node, and
// its child starts and level bounds with the schedule derived from o.
func checkTreeLayout(t *testing.T, where string, tr *topology.Tree, o *spantree.OracleTree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if tr.Root != o.Root || !slices.Equal(tr.Parent, o.Parent) || !slices.Equal(tr.Order, o.Order) {
		t.Fatalf("%s: root, parents or Order differ from the oracle's", where)
	}
	height, maxDeg := 0, 0
	for u := range o.Children {
		id := topology.NodeID(u)
		if !slices.Equal(tr.Children(id), o.Children[u]) {
			t.Fatalf("%s: node %d children %v, oracle %v", where, u, tr.Children(id), o.Children[u])
		}
		if tr.Depth(id) != o.Depth[u] {
			t.Fatalf("%s: node %d depth %d, oracle %d", where, u, tr.Depth(id), o.Depth[u])
		}
		height = max(height, o.Depth[u])
		d := len(o.Children[u])
		if id != o.Root {
			d++
		}
		maxDeg = max(maxDeg, d)
	}
	if tr.Height() != height || tr.MaxDegree() != maxDeg {
		t.Fatalf("%s: height %d, max degree %d; oracle %d, %d", where, tr.Height(), tr.MaxDegree(), height, maxDeg)
	}
	cs, bounds, _, err := spantree.OracleSchedule(o.Root, o.Order, func(u topology.NodeID) []topology.NodeID { return o.Children[u] })
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	pos, first, levels := tr.CSR()
	if !slices.Equal(first, cs) || !slices.Equal(levels, bounds) {
		t.Fatalf("%s: child starts %v, levels %v; oracle %v, %v", where, first, levels, cs, bounds)
	}
	for i, u := range tr.Order {
		if pos[u] != int32(i) {
			t.Fatalf("%s: node %d at position %d, pos says %d", where, u, i, pos[u])
		}
	}
}

// checkViewLayout compares view v's child lists with the oracle's, nil
// outside the view, and the schedule v carries with the one the engine
// derived from the oracle's lists.
func checkViewLayout(t *testing.T, where string, v *spantree.TreeView, children [][]topology.NodeID) {
	t.Helper()
	for u := range v.Parent {
		id := topology.NodeID(u)
		got := v.Children(id)
		if !v.Includes(id) {
			if got != nil {
				t.Fatalf("%s: excluded node %d has children %v", where, u, got)
			}
			continue
		}
		if !slices.Equal(got, children[u]) {
			t.Fatalf("%s: node %d children %v, oracle %v", where, u, got, children[u])
		}
	}
	cs, bounds, width, err := spantree.OracleSchedule(v.Root, v.Order, func(u topology.NodeID) []topology.NodeID { return children[u] })
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	gcs, gbounds, gwidth := spantree.CarriedSchedule(v)
	if !slices.Equal(gcs, cs) || !slices.Equal(gbounds, bounds) || gwidth != width {
		t.Fatalf("%s: carried cs=%v bounds=%v width=%d, derived cs=%v bounds=%v width=%d", where, gcs, gbounds, gwidth, cs, bounds, width)
	}
}
