package spantree_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
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

// orderDigest is a boxed combiner that reveals child order: it folds the
// sequence (local, child1, child2, ...) non-commutatively and gamma-codes
// the digest, so partials differ in length from node to node. Every
// schedule must present each node's children in tree order.
type orderDigest struct{}

func (orderDigest) Local(n *netsim.Node) any { return uint64(n.ID)%97 + 1 }
func (orderDigest) Merge(acc, child any) any {
	return (acc.(uint64)*31 + child.(uint64)) % (1 << 20)
}
func (orderDigest) AppendPartial(w *bitio.Writer, p any) { w.WriteGamma(p.(uint64)) }
func (orderDigest) Decode(pl wire.Payload) (any, error)  { return pl.Reader().ReadGamma() }

// scheduleCase is one generated input of the schedule-identity property.
type scheduleCase struct {
	graph *topology.Graph
	view  string // full, healed or subtree
	plan  string // none, dropdup or byz
	team  int
	order []int // the combiners, in the order they run
}

func (c scheduleCase) String() string {
	return fmt.Sprintf("%s/n=%d/view=%s/plan=%s/team=%d/ops=%v", c.graph.Name, c.graph.N(), c.view, c.plan, c.team, c.order)
}

// genScheduleCase draws one case from r.
func genScheduleCase(r *rand.Rand) scheduleCase {
	n := 1 + r.IntN(700)
	if r.IntN(4) == 0 {
		n = 1 + r.IntN(12)
	}
	var g *topology.Graph
	switch r.IntN(6) {
	case 0:
		side := 1 + r.IntN(40)
		g = topology.Grid(max(1, n/side), side)
	case 1:
		g = topology.Line(n)
	case 2:
		g = topology.Star(n)
	case 3:
		g = topology.Barbell(max(n, 4))
	case 4:
		g = topology.DenseGrid(max(1, n/16), 16)
	default:
		g = topology.RandomGeometric(n, 0, r.Uint64())
	}
	c := scheduleCase{
		graph: g,
		view:  []string{"full", "healed", "subtree"}[r.IntN(3)],
		plan:  []string{"none", "dropdup", "byz"}[r.IntN(3)],
		team:  1 + r.IntN(4),
		order: r.Perm(len(scheduleOps)),
	}
	return c
}

// scheduleOps are the combiners of the property: the nested and the
// general CountVec, the fused COUNT+SUM+MIN+MAX tuple, MinMax and the
// boxed order digest. Each returns the root's value.
var scheduleOps = []func(n *agg.Net, fe *spantree.FastEngine) any{
	func(n *agg.Net, _ *spantree.FastEngine) any { return n.CountVec(core.Linear, chainPreds(10), nil) },
	func(n *agg.Net, _ *spantree.FastEngine) any {
		return n.CountVec(core.Linear, []wire.Pred{wire.Less(700), wire.Less(100), wire.True(), wire.Less(400)}, nil)
	},
	func(n *agg.Net, _ *spantree.FastEngine) any {
		c, s, lo, hi, ok := n.MultiAggregate(core.Linear, wire.Less(800))
		return [5]any{c, s, lo, hi, ok}
	},
	func(n *agg.Net, _ *spantree.FastEngine) any {
		lo, hi, ok := n.MinMax(core.Linear)
		return [3]any{lo, hi, ok}
	},
	func(_ *agg.Net, fe *spantree.FastEngine) any {
		v, err := fe.Convergecast(orderDigest{})
		return [2]any{v, err}
	},
}

// build makes the case's network and engine: the plan's faults (plus
// crashes and dead links for a healed view), the view, and the team.
func (c scheduleCase) build(t *testing.T, seed uint64) (*netsim.Network, *spantree.FastEngine) {
	t.Helper()
	var spec faults.Spec
	switch c.plan {
	case "dropdup":
		spec.Drop, spec.Dup = 0.1, 0.1
	case "byz":
		spec.Byz, spec.ByzMode = 0.1, faults.ByzEquivocate
	}
	if c.view != "full" {
		spec.Crash, spec.LinkFail = 0.05, 0.05
	}
	nw, _ := netPair(c.graph, spec, seed)
	view := spantree.FullView(nw.Tree)
	if c.view != "full" {
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			t.Fatalf("%v: heal: %v", c, err)
		}
		view = hr.View
	}
	if kids := view.Children(view.Root); c.view == "subtree" && len(kids) > 0 {
		view = spantree.SubtreeView(view, kids[len(kids)/2])
	}
	fe := spantree.NewFastView(nw, view)
	fe.SetWorkers(c.team)
	return nw, fe
}

// TestScheduleIdentity is the property the team schedule rests on: over
// generated topology × N × view × fault plan × team size × combiner
// order, the subtree-partition schedule returns the sequential schedule's
// root values and charges every node's meter cell (sent, recv, msgs)
// exactly as the sequential schedule does.
func TestScheduleIdentity(t *testing.T) {
	cases := 240
	if testing.Short() {
		cases = 60
	}
	r := rand.New(rand.NewPCG(37, 1))
	for i := range cases {
		c := genScheduleCase(r)
		seed := uint64(100 + i)
		nw, fe := c.build(t, seed)
		ref, refFe := c.build(t, seed)
		refFe.SetWorkers(1)
		net, refNet := agg.NewNet(fe), agg.NewNet(refFe)
		for _, op := range c.order {
			got, want := scheduleOps[op](net, fe), scheduleOps[op](refNet, refFe)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %v: op %d root value\n got %v\nwant %v", i, c, op, got, want)
			}
		}
		requireSameMeters(t, fmt.Sprintf("case %d %v", i, c), nw, ref)
	}
}
