package byz

import (
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

func buildNet(t testing.TB, g *topology.Graph, spec faults.Spec, seed uint64) *netsim.Network {
	t.Helper()
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i % 97)
	}
	nw := netsim.New(g, values, 100, netsim.WithSeed(seed))
	if spec.Active() {
		nw.Faults = faults.New(spec, nw.N(), nw.Root(), seed)
	}
	return nw
}

// healedView builds the view a query would execute over (healing around
// structural faults when the plan has any).
func healedView(t *testing.T, nw *netsim.Network) *spantree.TreeView {
	t.Helper()
	fe, hr, err := spantree.NewFastHealed(nw)
	if err != nil {
		t.Fatal(err)
	}
	if hr != nil {
		return hr.View
	}
	return fe.View()
}

func TestLocalizeCleanNetwork(t *testing.T) {
	nw := buildNet(t, topology.Grid(6, 6), faults.Spec{}, 3)
	view := healedView(t, nw)
	rep, out, err := Localize(nw, view)
	if err != nil {
		t.Fatal(err)
	}
	if out != view {
		t.Fatal("clean Localize must return the input view unchanged")
	}
	if rep.Rounds != 1 || len(rep.Quarantined) != 0 || len(rep.Suspected) != 0 {
		t.Fatalf("clean report: %+v", rep)
	}
}

// TestLocalizeConvictsOnlyLiars is the localization invariant: descent can
// only convict a node whose own subtree mismatches while every child
// subtree passes, so every quarantined node must actually be Byzantine —
// and for these seeds the audit also clears the view of every liar.
func TestLocalizeConvictsOnlyLiars(t *testing.T) {
	g := topology.Grid(8, 8)
	sawLiar := false
	for seed := uint64(1); seed <= 6; seed++ {
		for _, mode := range []string{faults.ByzCorrupt, faults.ByzEquivocate, faults.ByzCollude} {
			nw := buildNet(t, g, faults.Spec{Byz: 0.06, ByzMode: mode}, seed)
			plan := nw.Faults
			if plan.ByzantineCount() > 0 {
				sawLiar = true
			}
			view := healedView(t, nw)
			before := nw.Meter.Snapshot()
			rep, out, err := Localize(nw, view)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range rep.Quarantined {
				if !plan.Byzantine(u) {
					t.Fatalf("seed %d mode %s: honest node %d convicted", seed, mode, u)
				}
			}
			for _, u := range out.Order {
				if plan.Byzantine(u) && u != out.Root {
					t.Fatalf("seed %d mode %s: liar %d survived in the view", seed, mode, u)
				}
			}
			if plan.ByzantineCount() > 0 {
				if len(rep.Quarantined) == 0 {
					t.Fatalf("seed %d mode %s: %d liars, none quarantined", seed, mode, plan.ByzantineCount())
				}
				if rep.AuditBits <= 0 {
					t.Fatalf("seed %d mode %s: audits charged %d bits", seed, mode, rep.AuditBits)
				}
				if nw.Meter.Since(before).TotalBits < rep.AuditBits {
					t.Fatal("audit bits not charged to the network meter")
				}
			}
		}
	}
	if !sawLiar {
		t.Fatal("no seed produced a Byzantine node; rates too low for the invariant to bite")
	}
}

// TestLocalizeWithStructuralFaults mixes lies with crashes and link
// failures: Localize must still convict only liars over the healed view.
func TestLocalizeWithStructuralFaults(t *testing.T) {
	g := topology.Grid(8, 8)
	for seed := uint64(1); seed <= 4; seed++ {
		spec := faults.Spec{Crash: 0.05, LinkFail: 0.03, Byz: 0.05}
		nw := buildNet(t, g, spec, seed)
		plan := nw.Faults
		view := healedView(t, nw)
		rep, out, err := Localize(nw, view)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range rep.Quarantined {
			if !plan.Byzantine(u) {
				t.Fatalf("seed %d: honest node %d convicted amid structural faults", seed, u)
			}
		}
		for _, u := range out.Order {
			if plan.Crashed(u) {
				t.Fatalf("seed %d: crashed node %d in localized view", seed, u)
			}
		}
	}
}

// truth computes the honest aggregate over the active items of the view's
// nodes — what a robust answer should reproduce once liars are contained.
func viewCount(nw *netsim.Network, view *spantree.TreeView, pred wire.Pred) uint64 {
	var c uint64
	for _, u := range view.Order {
		for _, it := range nw.Nodes[u].Items {
			if it.Active && pred.Eval(it.Cur) {
				c++
			}
		}
	}
	return c
}

func viewSum(nw *netsim.Network, view *spantree.TreeView) uint64 {
	var s uint64
	for _, u := range view.Order {
		for _, it := range nw.Nodes[u].Items {
			if it.Active {
				s += it.Cur
			}
		}
	}
	return s
}

// TestRobustZeroAdversaryIdentity: with no adversary the sector-split
// plane must produce values identical to the plain aggregation plane, on
// every primitive the engine dispatches.
func TestRobustZeroAdversaryIdentity(t *testing.T) {
	for _, g := range []*topology.Graph{topology.Grid(7, 7), topology.Star(17), topology.Line(12)} {
		nw := buildNet(t, g, faults.Spec{}, 9)
		view := healedView(t, nw)
		plain := agg.NewNet(spantree.NewFastView(nw, view))
		robust := NewRobustNet(nw, view)

		preds := []wire.Pred{wire.True(), wire.Less(40), wire.GreaterEq(60)}
		for _, p := range preds {
			if got, want := robust.Count(core.Linear, p), plain.Count(core.Linear, p); got != want {
				t.Fatalf("Count(%v): robust %d plain %d", p, got, want)
			}
			if got, want := robust.Sum(core.Linear, p), plain.Sum(core.Linear, p); got != want {
				t.Fatalf("Sum(%v): robust %d plain %d", p, got, want)
			}
		}
		rlo, rhi, rok := robust.MinMax(core.Linear)
		plo, phi, pok := plain.MinMax(core.Linear)
		if rlo != plo || rhi != phi || rok != pok {
			t.Fatalf("MinMax: robust (%d,%d,%v) plain (%d,%d,%v)", rlo, rhi, rok, plo, phi, pok)
		}
		chain := []wire.Pred{wire.Less(10), wire.Less(30), wire.Less(70), wire.True()}
		rv := robust.CountVec(core.Linear, chain, nil)
		pv := plain.CountVec(core.Linear, chain, nil)
		for i := range chain {
			if rv[i] != pv[i] {
				t.Fatalf("CountVec[%d]: robust %d plain %d", i, rv[i], pv[i])
			}
		}
		rc, rs, rl, rh, rk := robust.MultiAggregate(core.Linear, wire.True())
		pc, ps, pl, ph, pk := plain.MultiAggregate(core.Linear, wire.True())
		if rc != pc || rs != ps || rl != pl || rh != ph || rk != pk {
			t.Fatalf("MultiAggregate: robust (%d,%d,%d,%d) plain (%d,%d,%d,%d)", rc, rs, rl, rh, pc, ps, pl, ph)
		}
		if in := robust.Integrity(); in.Trims != 0 || in.BoundItems != 0 {
			t.Fatalf("honest run accumulated integrity debt: %+v", in)
		}
	}
}

// TestRobustTrimsLyingSectorRoot plants a Byzantine sector root on a star
// (every leaf is its own sector) and runs the trimmed plane WITHOUT
// localization: the relay lie must be trimmed back to the sector cap, the
// sector suspected, and the TRUE count still exact.
func TestRobustTrimsLyingSectorRoot(t *testing.T) {
	g := topology.Star(16)
	var nw *netsim.Network
	for seed := uint64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no seed yielded a Byzantine leaf")
		}
		nw = buildNet(t, g, faults.Spec{Byz: 0.2}, seed)
		if nw.Faults.ByzantineCount() > 0 {
			break
		}
	}
	view := healedView(t, nw)
	robust := NewRobustNet(nw, view)
	want := viewCount(nw, view, wire.True())
	if got := robust.Count(core.Linear, wire.True()); got != want {
		t.Fatalf("trimmed TRUE count %d, want %d", got, want)
	}
	in := robust.Integrity()
	if in.Trims == 0 || len(in.Suspected) == 0 || in.BoundItems == 0 {
		t.Fatalf("lying sector not suspected: %+v", in)
	}
	for _, u := range in.Suspected {
		if !nw.Faults.Byzantine(u) {
			t.Fatalf("honest sector %d suspected", u)
		}
	}
	// The bound is honest: the lie cannot displace any rank answer by
	// more than the suspected sectors' item mass.
	if in.BoundItems > uint64(nw.NumItems()) {
		t.Fatalf("bound %d exceeds the item population %d", in.BoundItems, nw.NumItems())
	}
}

// TestLocalizeThenRobustAnswersExactly is the package-level end-to-end:
// localize, re-heal, and aggregate — answers must equal the honest truth
// over the surviving view with a zero residual bound.
func TestLocalizeThenRobustAnswersExactly(t *testing.T) {
	g := topology.Grid(8, 8)
	for seed := uint64(1); seed <= 5; seed++ {
		nw := buildNet(t, g, faults.Spec{Byz: 0.08}, seed)
		view := healedView(t, nw)
		rep, view, err := Localize(nw, view)
		if err != nil {
			t.Fatal(err)
		}
		robust := NewRobustNet(nw, view)
		if got, want := robust.Count(core.Linear, wire.True()), viewCount(nw, view, wire.True()); got != want {
			t.Fatalf("seed %d: count %d want %d (report %+v)", seed, got, want, rep)
		}
		if got, want := robust.Sum(core.Linear, wire.True()), viewSum(nw, view); got != want {
			t.Fatalf("seed %d: sum %d want %d", seed, got, want)
		}
		if in := robust.Integrity(); in.BoundItems != 0 {
			t.Fatalf("seed %d: residual bound %d after localization", seed, in.BoundItems)
		}
	}
}

// TestCrossCheckFlagsCapacityDrift: the sketch plane sweeps the items that
// actually exist, so a capacity model gone stale (here: items deactivated
// behind the plane's back) deviates beyond the threshold and suspects the
// whole roster.
func TestCrossCheckFlagsCapacityDrift(t *testing.T) {
	nw := buildNet(t, topology.Grid(7, 7), faults.Spec{}, 5)
	view := healedView(t, nw)

	honest := NewRobustNet(nw, view)
	if dev, sus := honest.CrossCheck(); sus {
		t.Fatalf("honest cross-check fired at %.2fσ", dev)
	}

	drifted := NewRobustNet(nw, view)
	for _, nd := range nw.Nodes {
		for i := range nd.Items {
			if nd.ID%2 == 1 {
				nd.Items[i].Active = false
			}
		}
	}
	dev, sus := drifted.CrossCheck()
	if !sus {
		t.Fatalf("capacity drift not flagged (%.2fσ)", dev)
	}
	in := drifted.Integrity()
	if len(in.Suspected) == 0 || in.BoundItems == 0 {
		t.Fatalf("cross-check fired without suspects: %+v", in)
	}
	// Integrity lists suspects in ascending ID order without sorting:
	// sectors are built in view.Children[root] order, which is ascending.
	if len(in.Suspected) != drifted.Sectors() {
		t.Fatalf("%d of %d sectors suspected, want the whole roster", len(in.Suspected), drifted.Sectors())
	}
	for i := 1; i < len(in.Suspected); i++ {
		if in.Suspected[i-1] >= in.Suspected[i] {
			t.Fatalf("Suspected not in ascending ID order: %v", in.Suspected)
		}
	}
	nw.ResetItems()
}

// TestLocalizeForkDeterminism: the whole localization — quarantine set,
// rounds, audit traffic — is a pure function of (spec, seed, topology).
func TestLocalizeForkDeterminism(t *testing.T) {
	g := topology.Grid(8, 8)
	run := func() (*Report, int64) {
		nw := buildNet(t, g, faults.Spec{Byz: 0.08, ByzMode: faults.ByzEquivocate}, 11)
		view := healedView(t, nw)
		rep, _, err := Localize(nw, view)
		if err != nil {
			t.Fatal(err)
		}
		return rep, nw.Meter.TotalBits()
	}
	a, abits := run()
	b, bbits := run()
	if len(a.Quarantined) != len(b.Quarantined) || a.Rounds != b.Rounds || a.Audits != b.Audits {
		t.Fatalf("forked localizations diverged: %+v vs %+v", a, b)
	}
	for i := range a.Quarantined {
		if a.Quarantined[i] != b.Quarantined[i] {
			t.Fatalf("quarantine order diverged at %d: %d vs %d", i, a.Quarantined[i], b.Quarantined[i])
		}
	}
	if abits != bbits {
		t.Fatalf("forked localizations charged different traffic: %d vs %d", abits, bbits)
	}
}

// TestRelayAnnounceMatchesSectorBroadcast: the relay hop announces each
// query to a sector root in agg's framing, so at MaxX = 2^k−1 — where agg
// widens its value field to carry the threshold MaxX+1 — every announce
// costs the sector root exactly what the in-sector broadcast costs a node.
// On a star every sector is one leaf: its receive side is the announce
// alone under RobustNet, and the broadcast alone under agg.Net.
func TestRelayAnnounceMatchesSectorBroadcast(t *testing.T) {
	const maxX = 1<<10 - 1
	g := topology.Star(6)
	mk := func() *netsim.Network {
		values := make([]uint64, g.N())
		for i := range values {
			values[i] = uint64(i*171) % (maxX + 1)
		}
		return netsim.New(g, values, maxX, netsim.WithSeed(1))
	}
	relayNw, bcastNw := mk(), mk()
	robust := NewRobustNet(relayNw, spantree.FullView(relayNw.Tree))
	plain := agg.NewNet(spantree.NewFast(bcastNw))
	top := wire.Less(maxX + 1)
	chain := []wire.Pred{wire.Less(1), wire.Less(maxX / 2), top}
	general := []wire.Pred{wire.GreaterEq(3), wire.InRange(5, maxX+1)}
	type primitives interface {
		Count(core.Domain, wire.Pred) uint64
		Sum(core.Domain, wire.Pred) uint64
		MinMax(core.Domain) (uint64, uint64, bool)
		CountVec(core.Domain, []wire.Pred, []uint64) []uint64
		MultiAggregate(core.Domain, wire.Pred) (uint64, uint64, uint64, uint64, bool)
	}
	queries := []struct {
		name string
		run  func(n primitives)
	}{
		{"count", func(n primitives) { n.Count(core.Linear, top) }},
		{"count/log", func(n primitives) { n.Count(core.LogDomain, wire.Less(10)) }},
		{"sum", func(n primitives) { n.Sum(core.Linear, top) }},
		{"minmax", func(n primitives) { n.MinMax(core.Linear) }},
		{"countvec/chain", func(n primitives) { n.CountVec(core.Linear, chain, nil) }},
		{"countvec/general", func(n primitives) { n.CountVec(core.Linear, general, nil) }},
		{"multiagg", func(n primitives) { n.MultiAggregate(core.Linear, top) }},
	}
	recv := func(nw *netsim.Network) []int64 {
		out := make([]int64, nw.N())
		for u := range out {
			out[u] = nw.Meter.RecvBitsOf(topology.NodeID(u))
		}
		return out
	}
	for _, q := range queries {
		relayBefore, bcastBefore := recv(relayNw), recv(bcastNw)
		q.run(robust)
		q.run(plain)
		relayAfter, bcastAfter := recv(relayNw), recv(bcastNw)
		for _, s := range relayNw.Tree.Children[relayNw.Root()] {
			announce, bcast := relayAfter[s]-relayBefore[s], bcastAfter[s]-bcastBefore[s]
			if announce == 0 || announce != bcast {
				t.Errorf("%s: sector %d relay announce %d bits, in-sector broadcast %d", q.name, s, announce, bcast)
			}
		}
	}
}
