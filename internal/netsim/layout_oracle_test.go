package netsim_test

// The layout oracle: every sweep on a network whose nodes, items and meter
// cells are stored in its tree's BFS order (NewFromTree, recycled through a
// ForkPool) must match the same sweep on the ID-order reference
// (RefNewFromTree, reset by RefResetForRun) — root values, every node's
// counters by ID, Since/MaxPerNode and AllItems — over
// topology × root × view × combiner × fault plan × workers. The reference
// always runs its engine over an explicit view (NewFastView): the flat
// broadcast pass of NewFast assumes the tree-ordered storage, which the
// reference does not have.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

const oracleMaxX = 1023

// layoutTopology is one row of the topology axis: a graph and the root its
// tree hangs from. A large row runs the fault-free row of the fault axis
// only, which keeps the matrix within a minute under -race.
type layoutTopology struct {
	name  string
	g     *topology.Graph
	root  topology.NodeID
	large bool
}

func layoutTopologies(t *testing.T) []layoutTopology {
	rows := []layoutTopology{
		{name: "grid/corner", g: topology.Grid(20, 24), root: 0},
		{name: "grid/centre", g: topology.Grid(20, 24), root: 10*24 + 12},
		{name: "rgg", g: topology.RandomGeometric(300, 0, 5), root: 0},
		{name: "barbell", g: topology.Barbell(120), root: 0},
		{name: "line/mid", g: topology.Line(150), root: 75},
		{name: "randtree", g: randomTree(400, 3), root: 0},
		{name: "grid/tiny", g: topology.Grid(2, 3), root: 4},
	}
	if !testing.Short() {
		rows = append(rows, layoutTopology{name: "grid/centre/6400", g: topology.Grid(80, 80), root: 40*80 + 40, large: true})
	}
	for _, r := range rows {
		if !r.g.Connected() {
			t.Fatalf("%s: graph is disconnected", r.name)
		}
	}
	return rows
}

// randomTree is a uniformly attached random tree: node i hangs off a
// random earlier node.
func randomTree(n int, seed uint64) *topology.Graph {
	rng := rand.New(rand.NewPCG(seed, 0x7ee))
	adj := make([][]topology.NodeID, n)
	for i := 1; i < n; i++ {
		p := rng.IntN(i)
		adj[p] = append(adj[p], topology.NodeID(i))
		adj[i] = append(adj[i], topology.NodeID(p))
	}
	return &topology.Graph{Adj: adj, Name: fmt.Sprintf("randtree(%d)", n)}
}

// layoutItems gives every node one reading, or, with multi, three to every
// fifth node and none to every seventh: both of AllItems' passes.
func layoutItems(n int, multi bool) [][]uint64 {
	items := make([][]uint64, n)
	for i := range items {
		items[i] = []uint64{uint64(i*37) % oracleMaxX}
		if multi && i%5 == 4 {
			items[i] = append(items[i], uint64(i)%oracleMaxX, oracleMaxX-uint64(i)%oracleMaxX)
		}
		if multi && i%7 == 6 {
			items[i] = nil
		}
	}
	return items
}

// dirty leaves on nw what a finished run leaves: drawn RNG streams, scratch,
// rescaled and deactivated items and charges.
func dirty(nw *netsim.Network) {
	for _, nd := range nw.Nodes {
		nd.RNG().Uint64()
		nd.Scratch = "stale"
		for i := range nd.Items {
			if (int(nd.ID)+i)%2 == 0 {
				nd.Items[i].Cur, nd.Items[i].Active = 7, false
			}
		}
	}
	nw.Meter.Charge(0, 1, 99)
}

// layoutTwins returns a run network in the tree's layout — a recycled
// ForkPool network, dirtied by an earlier run and reset for seed — and the
// ID-order reference brought to the same state by the reference reset.
func layoutTwins(g *topology.Graph, tree *topology.Tree, items [][]uint64, seed uint64) (nw, ref *netsim.Network) {
	pool := netsim.NewForkPool(netsim.NewFromTree(g, tree, items, oracleMaxX, 1))
	prev := pool.Get(seed + 100)
	dirty(prev)
	prev.Release()
	nw = pool.Get(seed)
	if nw != prev {
		panic("pool did not recycle the run network")
	}
	ref = netsim.RefNewFromTree(g, tree, items, oracleMaxX, seed+100)
	dirty(ref)
	ref.RefResetForRun(seed)
	return nw, ref
}

// layoutFault is one row of the fault axis. structural rows crash nodes and
// fail links, so their sweeps run over healed views.
type layoutFault struct {
	name       string
	spec       faults.Spec
	structural bool
}

var layoutFaults = []layoutFault{
	{name: "none"},
	{name: "crash+linkfail", spec: faults.Spec{Crash: 0.05, LinkFail: 0.05}, structural: true},
	{name: "drop/dup", spec: faults.Spec{Drop: 0.1, Dup: 0.1}},
	{name: "byz", spec: faults.Spec{Byz: 0.1}},
}

// layoutView is one sweep target: the production engine and the reference
// engine over the same view of a twin pair.
type layoutView struct {
	name    string
	nw, ref *netsim.Network
	fe, re  spantree.Ops
}

// newLayoutView pairs an engine on nw over v (the full tree when v is nil)
// with the reference engine on ref over refView.
func newLayoutView(t *testing.T, name string, nw, ref *netsim.Network, v, refView *spantree.TreeView, workers int) layoutView {
	t.Helper()
	fe := spantree.NewFast(nw)
	if v != nil {
		if !v.Equal(refView) {
			t.Fatalf("%s: twin networks disagree on the view", name)
		}
		fe = spantree.NewFastView(nw, v)
	}
	re := spantree.NewFastView(ref, refView)
	fe.SetWorkers(workers)
	re.SetWorkers(workers)
	return layoutView{name: name, nw: nw, ref: ref, fe: fe, re: re}
}

// layoutViews builds the view axis on a twin pair: the full tree or, under
// a structural plan, the healed view, each with the SubtreeView of up to
// two of its root children.
func layoutViews(t *testing.T, where string, nw, ref *netsim.Network, structural bool, workers int) []layoutView {
	t.Helper()
	v, refView, name := (*spantree.TreeView)(nil), spantree.FullView(ref.Tree), where+"/full"
	if structural {
		name = where + "/healed"
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			t.Fatalf("%s: heal: %v", name, err)
		}
		refHr, _, err := spantree.HealRerooted(ref)
		if err != nil {
			t.Fatalf("%s: heal: %v", name, err)
		}
		v, refView = hr.View, refHr.View
	}
	views := []layoutView{newLayoutView(t, name, nw, ref, v, refView, workers)}
	if v == nil {
		v = spantree.FullView(nw.Tree)
	}
	kids := v.Children(v.Root)
	for _, c := range kids[:min(2, len(kids))] {
		sub := fmt.Sprintf("%s/sector(%d)", name, c)
		views = append(views, newLayoutView(t, sub, nw, ref, spantree.SubtreeView(v, c), spantree.SubtreeView(refView, c), workers))
	}
	return views
}

// rerootedView strikes a fresh twin pair mid-flight under spec plus a root
// kill and returns the view re-healed around the new acting root.
func rerootedView(t *testing.T, where string, nw, ref *netsim.Network, spec faults.Spec, seed uint64, workers int) layoutView {
	t.Helper()
	where += "/rerooted"
	spec.MidAt, spec.MidCrash, spec.MidKillRoot = 1, 0.05, true
	var views [2]*spantree.TreeView
	for i, x := range []*netsim.Network{nw, ref} {
		x.Faults = faults.New(spec, x.N(), x.Root(), seed)
		if _, _, err := spantree.HealRerooted(x); err != nil {
			t.Fatalf("%s: heal: %v", where, err)
		}
		if !x.Faults.Tick() {
			t.Fatalf("%s: phased faults did not fire", where)
		}
		hr, root, err := spantree.HealRerooted(x)
		if err != nil {
			t.Fatalf("%s: re-heal: %v", where, err)
		}
		if root == x.Tree.Root {
			t.Fatalf("%s: the strike kept root %d", where, root)
		}
		views[i] = hr.View
	}
	return newLayoutView(t, where, nw, ref, views[0], views[1], workers)
}

// layoutChain is the ⊆-chain of k ascending thresholds over the domain.
func layoutChain(k int) []wire.Pred {
	preds := make([]wire.Pred, k)
	for i := range preds {
		preds[i] = wire.Less(uint64(i+1) * oracleMaxX / uint64(k+1))
	}
	return preds
}

// layoutWorkload runs the combiner axis over one engine and returns every
// root value in order: COUNT, SUM, MIN/MAX, CountVec at k = 1, 8, 64, the
// fused COUNT+SUM+MIN+MAX tuple and an exact DISTINCT (the generic boxed
// path), with a WHERE filter and a Zoom — broadcast appliers that rewrite
// items — between them, and the items restored at the end.
func layoutWorkload(ops spantree.Ops) []any {
	n := agg.NewNet(ops)
	var out []any
	sweep := func() {
		out = append(out, n.Count(core.Linear, wire.Less(500)))
		out = append(out, n.Sum(core.Linear, wire.True()))
		lo, hi, ok := n.MinMax(core.Linear)
		out = append(out, [3]any{lo, hi, ok})
		for _, k := range []int{1, 8, 64} {
			out = append(out, n.CountVec(core.Linear, layoutChain(k), nil))
		}
		c, s, flo, fhi, fok := n.MultiAggregate(core.Linear, wire.Less(800))
		out = append(out, [5]any{c, s, flo, fhi, fok})
	}
	sweep()
	res, err := distinct.Exact(ops)
	out = append(out, res.Distinct, err)
	n.Filter(wire.Less(900))
	n.Zoom(8)
	sweep()
	n.Reset()
	return out
}

// requireSameLayoutMeters asserts the twins' per-node counters agree by ID.
func requireSameLayoutMeters(t *testing.T, where string, nw, ref *netsim.Network) {
	t.Helper()
	for u := 0; u < nw.N(); u++ {
		id := topology.NodeID(u)
		if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) ||
			nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
			nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
			t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, reference %d/%d/%d", where, u,
				nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
				ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
		}
	}
	if nw.Meter.MaxPerNode() != ref.Meter.MaxPerNode() {
		t.Fatalf("%s: MaxPerNode %d, reference %d", where, nw.Meter.MaxPerNode(), ref.Meter.MaxPerNode())
	}
}

// TestLayoutMatchesReference is the layout oracle (see the file comment).
func TestLayoutMatchesReference(t *testing.T) {
	sweeps := 0
	for ti, top := range layoutTopologies(t) {
		tree := netsim.BuildTree(top.g, top.root, netsim.DefaultMaxChildren)
		items := layoutItems(top.g.N(), ti%2 == 1)
		for _, f := range layoutFaults {
			if top.large && f.name != "none" {
				continue
			}
			for _, workers := range []int{1, 3} {
				where := fmt.Sprintf("%s/%s/workers=%d", top.name, f.name, workers)
				seed := uint64(11 + ti)
				nw, ref := layoutTwins(top.g, tree, items, seed)
				if got, want := nw.AllItems(), ref.RefAllItems(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AllItems after reset\n got %v\nwant %v", where, got, want)
				}
				for _, x := range []*netsim.Network{nw, ref} {
					if f.spec.Active() {
						x.Faults = faults.New(f.spec, x.N(), x.Root(), seed)
					}
				}
				snap, refSnap := nw.Meter.Snapshot(), ref.Meter.Snapshot()
				views := layoutViews(t, where, nw, ref, f.structural, workers)
				if f.structural && top.g.N() > 2 {
					rnw, rref := layoutTwins(top.g, tree, items, seed)
					views = append(views, rerootedView(t, where, rnw, rref, f.spec, seed, workers))
				}
				for _, v := range views {
					got, want := layoutWorkload(v.fe), layoutWorkload(v.re)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: root values\n got %v\nwant %v", v.name, got, want)
					}
					requireSameLayoutMeters(t, v.name, v.nw, v.ref)
					sweeps += len(got)
				}
				if got, want := nw.Meter.Since(snap), ref.Meter.Since(refSnap); got != want {
					t.Fatalf("%s: Since %+v, reference %+v", where, got, want)
				}
				if got, want := nw.AllItems(), ref.RefAllItems(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AllItems\n got %v\nwant %v", where, got, want)
				}
			}
		}
	}
	t.Logf("compared %d root values", sweeps)
	if sweeps < 2000 {
		t.Fatalf("matrix too small: %d root values compared", sweeps)
	}
}

// TestByzOutcomeReplaysAcrossForks: a byz.Outcome recorded on one fork of a
// template replays onto another fork — a Ledger is indexed by storage slot,
// which every fork of the template shares — and leaves it, node by node,
// where a fork that ran the audit itself ends up.
func TestByzOutcomeReplaysAcrossForks(t *testing.T) {
	g := topology.Grid(16, 16)
	tree := netsim.BuildTree(g, 8*16+8, netsim.DefaultMaxChildren)
	pool := netsim.NewForkPool(netsim.NewFromTree(g, tree, layoutItems(g.N(), false), oracleMaxX, 1))
	spec := faults.Spec{Byz: 0.1}
	fork := func() *netsim.Network {
		nw := pool.Get(5)
		nw.Faults = faults.New(spec, nw.N(), nw.Root(), 5)
		return nw
	}
	rec, ref, fwd := fork(), fork(), fork()
	out, rep, _, err := byz.Record(rec, spantree.FullView(tree))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) == 0 {
		t.Fatal("the audit convicted nobody: the replay would prove nothing")
	}
	_, view, err := byz.Localize(ref, spantree.FullView(tree))
	if err != nil {
		t.Fatal(err)
	}
	byz.NewRobustNet(ref, view).CrossCheck()
	out.Replay(fwd, spantree.FullView(tree))
	requireSameLayoutMeters(t, "replayed", fwd, ref)
	for u := 0; u < g.N(); u++ {
		if id := topology.NodeID(u); fwd.Faults.Quarantined(id) != ref.Faults.Quarantined(id) {
			t.Fatalf("node %d quarantined %v after replay, %v after the audit", u, fwd.Faults.Quarantined(id), ref.Faults.Quarantined(id))
		}
	}
}
