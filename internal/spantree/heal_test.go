package spantree

import (
	"sync/atomic"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// validateView checks a healed view's structural invariants against the
// fault plan: every survivor in the view hangs off an included parent, the
// excluded nodes are exactly crashed + unreachable, and Order is a BFS
// cover of the included set.
func validateView(t *testing.T, nw *netsim.Network, res *HealResult) {
	t.Helper()
	v := res.View
	n := nw.N()
	plan := nw.Faults
	included := 0
	seen := make([]bool, n)
	for i, u := range v.Order {
		if seen[u] {
			t.Fatalf("node %d appears twice in Order", u)
		}
		seen[u] = true
		if i == 0 && u != v.Root {
			t.Fatal("Order does not start at root")
		}
	}
	for u := 0; u < n; u++ {
		uid := topology.NodeID(u)
		if !v.Includes(uid) {
			if seen[u] {
				t.Fatalf("excluded node %d listed in Order", u)
			}
			continue
		}
		included++
		if !seen[u] {
			t.Fatalf("included node %d missing from Order", u)
		}
		if plan.Crashed(uid) {
			t.Fatalf("crashed node %d is in the healed view", u)
		}
		if uid == v.Root {
			continue
		}
		p := v.Parent[u]
		if p < 0 || !v.Includes(p) {
			t.Fatalf("node %d has excluded parent %d", u, p)
		}
		if !plan.LinkAlive(p, uid) && nw.Tree.Parent[u] == p {
			t.Fatalf("node %d kept its parent across a dead link", u)
		}
	}
	aliveCount := n - res.Crashed
	if included != aliveCount-res.Unreachable {
		t.Fatalf("view includes %d nodes; %d alive - %d unreachable = %d",
			included, aliveCount, res.Unreachable, aliveCount-res.Unreachable)
	}
}

// faultyNet builds a network over g (node i holds value i) with the
// spec's fault plan installed.
func faultyNet(g *topology.Graph, spec faults.Spec, seed uint64) *netsim.Network {
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i)
	}
	nw := netsim.New(g, values, uint64(g.N()), netsim.WithSeed(seed))
	nw.Faults = faults.New(spec, nw.N(), nw.Root(), seed)
	return nw
}

func healNetwork(t *testing.T, g *topology.Graph, spec faults.Spec, seed uint64) (*netsim.Network, *HealResult) {
	t.Helper()
	nw := faultyNet(g, spec, seed)
	res, _, err := HealRerooted(nw)
	if err != nil {
		t.Fatal(err)
	}
	return nw, res
}

// TestHealReconnectsGridSurvivors is the acceptance scenario: crash rates
// up to 5% on a 24×24 grid — every survivor must reattach, and the repair
// must have been charged to the meter.
func TestHealReconnectsGridSurvivors(t *testing.T) {
	g := topology.Grid(24, 24)
	for _, rate := range []float64{0.01, 0.02, 0.05} {
		for seed := uint64(1); seed <= 5; seed++ {
			nw, res := healNetwork(t, g, faults.Spec{Crash: rate}, seed)
			if res.Crashed == 0 && rate >= 0.02 {
				t.Errorf("rate %.2f seed %d: plan crashed nobody", rate, seed)
			}
			if res.Unreachable != 0 {
				t.Errorf("rate %.2f seed %d: %d survivors unreachable", rate, seed, res.Unreachable)
			}
			if res.OrphanRoots > 0 && res.Repair.TotalBits == 0 {
				t.Errorf("rate %.2f seed %d: repair charged no bits", rate, seed)
			}
			if res.Unreachable == 0 && res.Reattached != res.OrphanRoots {
				t.Errorf("rate %.2f seed %d: %d of %d orphan roots reattached",
					rate, seed, res.Reattached, res.OrphanRoots)
			}
			validateView(t, nw, res)
		}
	}
}

// TestHealedConvergecastCoversSurvivors: a convergecast over the healed
// view aggregates exactly the surviving nodes.
func TestHealedConvergecastCoversSurvivors(t *testing.T) {
	g := topology.Grid(16, 16)
	nw, res := healNetwork(t, g, faults.Spec{Crash: 0.05}, 3)
	if res.Unreachable != 0 {
		t.Fatalf("unexpected unreachable survivors: %d", res.Unreachable)
	}
	ops := NewFastView(nw, res.View)
	out, err := ops.Convergecast(idCombiner{})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for u := 0; u < nw.N(); u++ {
		if !nw.Faults.Crashed(topology.NodeID(u)) {
			want += uint64(u)
		}
	}
	if out.(uint64) != want {
		t.Errorf("healed convergecast sum = %d, want %d", out, want)
	}

	// Broadcast over the healed view reaches exactly the survivors.
	var w bitio.Writer
	w.WriteBits(0b101, 3)
	var reached atomic.Int64
	ops.Broadcast(wire.FromWriter(&w), func(n *netsim.Node, _ wire.Payload) {
		if nw.Faults.Crashed(n.ID) {
			t.Errorf("broadcast reached crashed node %d", n.ID)
		}
		reached.Add(1)
	})
	if int(reached.Load()) != res.View.N() {
		t.Errorf("broadcast reached %d nodes, view has %d", reached.Load(), res.View.N())
	}
}

// TestHealLinkFailuresOnly: dead links alone (no crashes) also orphan
// subtrees, and healing routes around them.
func TestHealLinkFailuresOnly(t *testing.T) {
	g := topology.Grid(12, 12)
	nw, res := healNetwork(t, g, faults.Spec{LinkFail: 0.1}, 7)
	if res.Crashed != 0 {
		t.Fatalf("link-failure plan crashed %d nodes", res.Crashed)
	}
	if res.OrphanRoots == 0 {
		t.Skip("no tree link died under this seed — raise the rate")
	}
	validateView(t, nw, res)
	if res.Unreachable != 0 {
		t.Errorf("%d survivors unreachable on a grid with 10%% link failures", res.Unreachable)
	}
}

// TestHealWithoutPlanFails: healing a reliable network is a caller bug.
func TestHealWithoutPlanFails(t *testing.T) {
	nw := testNetwork(t, topology.Line(4))
	if _, _, err := HealRerooted(nw); err == nil {
		t.Error("expected an error without a fault plan")
	}
}

// TestHealNoFaultsIsCheap: a structural plan that happens to break nothing
// heals to the full tree for just the heartbeat cost.
func TestHealNoFaultsIsCheap(t *testing.T) {
	g := topology.Line(10)
	_, res := healNetwork(t, g, faults.Spec{Crash: 0.0001}, 1)
	if res.Crashed != 0 {
		t.Skip("seed crashed a node at rate 1e-4")
	}
	if res.View.N() != g.N() {
		t.Errorf("view covers %d of %d nodes", res.View.N(), g.N())
	}
	// One heartbeat bit per tree edge, nothing else.
	if res.Repair.TotalBits != int64(g.N()-1) {
		t.Errorf("repair cost %d bits, want %d heartbeat bits", res.Repair.TotalBits, g.N()-1)
	}
}
