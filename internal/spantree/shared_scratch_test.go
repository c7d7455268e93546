package spantree_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// TestInterleavedEnginesDoNotClobber is the aliasing contract of the
// scratch every engine on one run network shares: a full-view, a
// healed-view and two sector engines take turns on one network — probe
// widths differing, so the ring is restrided between operations — and
// every answer, captured before the next operation as the ConvergecastVec
// aliasing contract requires, equals what the same engine answers alone on
// a network of its own.
func TestInterleavedEnginesDoNotClobber(t *testing.T) {
	g := topology.Grid(16, 16)
	spec := faults.Spec{Crash: 0.04, LinkFail: 0.04, Byz: 0.05}
	// engines builds the four engines over one network, in a fixed order.
	engines := func(nw *netsim.Network, workers int) []*agg.Net {
		hr, err := spantree.Heal(nw)
		if err != nil {
			t.Fatal(err)
		}
		sectors := hr.View.Children[hr.View.Root]
		if len(sectors) < 2 {
			t.Fatalf("healed root has %d children, want 2", len(sectors))
		}
		fes := []*spantree.FastEngine{
			spantree.NewFast(nw),
			spantree.NewFastView(nw, hr.View),
			spantree.NewFastView(nw, spantree.SubtreeView(hr.View, sectors[0])),
			spantree.NewFastView(nw, spantree.SubtreeView(hr.View, sectors[1])),
		}
		nets := make([]*agg.Net, len(fes))
		for i, fe := range fes {
			fe.SetWorkers(workers)
			nets[i] = agg.NewNet(fe)
		}
		return nets
	}
	// step is engine i's operations in round r: a probe sweep whose width
	// depends on both, then an extrema sweep.
	step := func(n *agg.Net, i, r int) []any {
		counts := n.CountVec(core.Linear, chainPreds(1+(3*i+5*r)%17), nil)
		lo, hi, ok := n.MinMax(core.Linear)
		return []any{counts, lo, hi, ok}
	}
	const rounds = 4
	for _, workers := range []int{1, 3} {
		shared, _ := netPair(g, spec, 11)
		got := make([][]any, 4)
		for r := 0; r < rounds; r++ {
			for i, n := range engines(shared, workers) {
				got[i] = append(got[i], step(n, i, r)...)
			}
		}
		for i := range got {
			// Alone: a twin network per engine, healed once per round like
			// the shared one, so lie sequences and views line up.
			alone, _ := netPair(g, spec, 11)
			var want []any
			for r := 0; r < rounds; r++ {
				want = append(want, step(engines(alone, workers)[i], i, r)...)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers=%d engine %d: interleaved\n got %v\nwant %v", workers, i, got[i], want)
			}
		}
	}
}

// nodeCount is a minimal generic combiner: it counts the view's nodes.
type nodeCount struct{}

func (nodeCount) Local(*netsim.Node) any           { return uint64(1) }
func (nodeCount) Merge(acc, child any) any         { return acc.(uint64) + child.(uint64) }
func (nodeCount) AppendPartial(*bitio.Writer, any) {}
func (nodeCount) Decode(wire.Payload) (any, error) {
	return nil, fmt.Errorf("nodeCount: partials are not decodable")
}

// TestMalformedViewIsRejected hands the engine hand-built views whose
// Order and Children disagree. The position sweep leans on Order being
// the BFS of Children, so it must refuse them with an error — never
// merge a partial into the wrong parent or drop one silently.
func TestMalformedViewIsRejected(t *testing.T) {
	nw, _ := netPair(topology.Grid(4, 4), faults.Spec{}, 1)
	full := spantree.FullView(nw.Tree)
	reorder := func(f func(order []topology.NodeID) []topology.NodeID) *spantree.TreeView {
		v := *full
		v.Order = f(append([]topology.NodeID(nil), full.Order...))
		return &v
	}
	for name, tc := range map[string]struct {
		view *spantree.TreeView
		want string
	}{
		"child missing from Order": {reorder(func(o []topology.NodeID) []topology.NodeID { return o[:len(o)-1] }), "Children lists reach"},
		"Order lists a stranger":   {reorder(func(o []topology.NodeID) []topology.NodeID { return append(o, o[len(o)-1]) }), "Children lists reach"},
		"Order starts off-root":    {reorder(func(o []topology.NodeID) []topology.NodeID { o[0], o[1] = o[1], o[0]; return o }), "does not start at its root"},
		"empty Order":              {reorder(func(o []topology.NodeID) []topology.NodeID { return nil }), "does not start at its root"},
	} {
		out, err := spantree.NewFastView(nw, tc.view).Convergecast(nodeCount{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Convergecast = %v, %v; want an error mentioning %q", name, out, err, tc.want)
		}
	}
	// A forest: node counts agree, but nothing below the root's level is
	// reachable from it.
	leafless := *full
	leafless.Children = make([][]topology.NodeID, len(full.Children))
	deepest := full.Order[len(full.Order)-1]
	leafless.Children[deepest] = full.Order[1:]
	if out, err := spantree.NewFastView(nw, &leafless).Convergecast(nodeCount{}); err == nil || !strings.Contains(err.Error(), "not a BFS") {
		t.Errorf("forest: Convergecast = %v, %v; want a not-a-BFS error", out, err)
	}
}
