package spantree

import (
	"errors"
	"reflect"
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
)

// midNetwork builds a grid network with a phased plan and fires it,
// returning the network ready for completeness checks.
func midNetwork(t *testing.T, n int, spec faults.Spec, seed uint64) *netsim.Network {
	t.Helper()
	g, err := topology.Build("grid", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, g.N())
	for i := range values {
		values[i] = uint64(i)
	}
	nw := netsim.New(g, values, uint64(g.N()), netsim.WithSeed(seed))
	nw.Faults = faults.New(spec, nw.N(), nw.Root(), seed)
	for !nw.Faults.PhaseFired() {
		nw.Faults.Tick()
	}
	return nw
}

// TestCheckCompleteDetectsDeadSubtrees: after a mid-flight crash, the
// completeness check must report exactly the dead subtree accounting — a
// frontier of shallowest dead nodes and the total missing count — through
// the ErrSweepIncomplete sentinel.
func TestCheckCompleteDetectsDeadSubtrees(t *testing.T) {
	nw := midNetwork(t, 144, faults.Spec{MidAt: 1, MidCrash: 0.1}, 3)
	plan := nw.Faults
	if plan.CrashedCount() == 0 {
		t.Fatal("mid crash killed nobody at this seed; pick another")
	}
	fe := NewFast(nw)
	err := fe.checkComplete(plan)
	if err == nil {
		t.Fatal("completeness check passed over dead subtrees")
	}
	if !errors.Is(err, ErrSweepIncomplete) {
		t.Fatalf("error %v does not match ErrSweepIncomplete", err)
	}
	var ise *IncompleteSweepError
	if !errors.As(err, &ise) {
		t.Fatalf("error %T is not an IncompleteSweepError", err)
	}
	if ise.RootDead {
		t.Error("root reported dead; the plan never kills it with MidCrash alone")
	}
	if len(ise.Frontier) == 0 || ise.Missing < len(ise.Frontier) {
		t.Errorf("frontier %d, missing %d: missing must cover every frontier subtree",
			len(ise.Frontier), ise.Missing)
	}
	// Every frontier node is dead-or-cut and its parent is not: the
	// shallowest point of each lost subtree.
	v := fe.View()
	for _, u := range ise.Frontier {
		p := v.Parent[u]
		if !plan.Excluded(u) && plan.LinkAlive(p, u) {
			t.Errorf("frontier node %d is alive and connected", u)
		}
		if p != v.Root && plan.Excluded(p) {
			t.Errorf("frontier node %d hangs under a dead parent %d — not shallowest", u, p)
		}
	}
	// Missing equals the number of view nodes that cannot reach the root
	// over live edges.
	missing := 0
	dead := make(map[topology.NodeID]bool)
	for _, u := range v.Order {
		if u == v.Root {
			continue
		}
		p := v.Parent[u]
		if dead[p] || plan.Excluded(u) || !plan.LinkAlive(p, u) {
			dead[u] = true
			missing++
		}
	}
	if missing != ise.Missing {
		t.Errorf("missing %d != recomputed %d", ise.Missing, missing)
	}
}

// TestCheckCompleteRootDead: a root kill is total loss — the error reports
// RootDead with the whole view missing.
func TestCheckCompleteRootDead(t *testing.T) {
	nw := midNetwork(t, 64, faults.Spec{MidAt: 1, MidKillRoot: true}, 1)
	fe := NewFast(nw)
	err := fe.checkComplete(nw.Faults)
	var ise *IncompleteSweepError
	if !errors.As(err, &ise) {
		t.Fatalf("expected IncompleteSweepError, got %v", err)
	}
	if !ise.RootDead {
		t.Error("root kill not reported as RootDead")
	}
	if ise.Missing != fe.View().N() {
		t.Errorf("missing %d != whole view %d", ise.Missing, fe.View().N())
	}
}

// TestCheckCompleteWholeTree: an armed-but-unfired plan (and a fired plan
// that killed nobody) must pass the completeness check.
func TestCheckCompleteWholeTree(t *testing.T) {
	g, err := topology.Build("grid", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, g.N())
	nw := netsim.New(g, values, 64, netsim.WithSeed(1))
	nw.Faults = faults.New(faults.Spec{MidAt: 3, MidCrash: 0.5}, nw.N(), nw.Root(), 1)
	fe := NewFast(nw)
	if err := fe.checkComplete(nw.Faults); err != nil {
		t.Errorf("unfired plan failed the completeness check: %v", err)
	}
}

// TestVerifiedViewRecheckedAfterQuarantine: an engine skips the completeness
// walk while its fired plan is unchanged since the view last passed it, but
// a quarantine is a change — quarantining a node of a verified view must
// fail the very next sweep with ErrSweepIncomplete, and a view that stays
// whole keeps sweeping exactly.
func TestVerifiedViewRecheckedAfterQuarantine(t *testing.T) {
	nw := midNetwork(t, 144, faults.Spec{MidAt: 1, MidCrash: 0.1}, 3)
	plan := nw.Faults
	hr, _, err := HealRerooted(nw)
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFastView(nw, hr.View)
	var want uint64
	for _, u := range hr.View.Order {
		want += uint64(u)
	}
	for sweep := 0; sweep < 3; sweep++ {
		out, err := fe.Convergecast(idCombiner{})
		if err != nil {
			t.Fatalf("sweep %d over the whole re-healed view: %v", sweep, err)
		}
		if out.(uint64) != want {
			t.Fatalf("sweep %d: sum %d, want %d", sweep, out, want)
		}
	}
	victim := hr.View.Order[len(hr.View.Order)/2]
	plan.Quarantine(victim)
	_, err = fe.Convergecast(idCombiner{})
	var ise *IncompleteSweepError
	if !errors.Is(err, ErrSweepIncomplete) || !errors.As(err, &ise) {
		t.Fatalf("sweep after quarantining view node %d: error %v, want ErrSweepIncomplete", victim, err)
	}
	if ise.Missing < 1 {
		t.Errorf("quarantined node %d reported %d missing", victim, ise.Missing)
	}
}

// TestHealRerootedAfterRootKill: with the root dead, the re-rooted heal
// must pick the lowest-ID survivor as acting root and produce a valid view
// over every reachable survivor.
func TestHealRerootedAfterRootKill(t *testing.T) {
	nw := midNetwork(t, 144, faults.Spec{MidAt: 1, MidKillRoot: true, MidCrash: 0.05}, 5)
	plan := nw.Faults
	hr, root, err := HealRerooted(nw)
	if err != nil {
		t.Fatal(err)
	}
	if root == nw.Tree.Root {
		t.Fatal("re-rooted heal kept the dead root")
	}
	for u := 0; u < int(root); u++ {
		if !plan.Excluded(topology.NodeID(u)) {
			t.Fatalf("acting root %d is not the lowest-ID survivor (%d lives)", root, u)
		}
	}
	if hr.View.Root != root {
		t.Errorf("view rooted at %d, want %d", hr.View.Root, root)
	}
	validateView(t, nw, hr)
	if hr.Repair.TotalBits <= 0 {
		t.Error("re-rooted heal charged no repair traffic")
	}
}

// TestHealRerootedLiveRootMatchesHeal: with the root alive, HealRerooted
// must heal toward it — the root heal, exactly as the reference repair
// runs it.
func TestHealRerootedLiveRootMatchesHeal(t *testing.T) {
	spec := faults.Spec{MidAt: 1, MidCrash: 0.08}
	a := midNetwork(t, 144, spec, 7)
	b := midNetwork(t, 144, spec, 7)
	hra, root, err := HealRerooted(a)
	if err != nil {
		t.Fatal(err)
	}
	if root != b.Tree.Root {
		t.Errorf("live-root reheal moved the root to %d", root)
	}
	hrb, err := oracleHealToward(b, b.Tree.Root)
	if err != nil {
		t.Fatal(err)
	}
	requireSameHeal(t, a, b, hra, hrb)
}

// TestCheckCompleteMatchesOracle holds the completeness check, which reads
// the link fates kept for the plan epoch, to the check that hashed every
// view edge: on the full view and on a healed one, for strikes that crash
// nodes, kill links or both, with and without quarantines after the
// strike, the same error (frontier, missing count) or none.
func TestCheckCompleteMatchesOracle(t *testing.T) {
	incomplete := 0
	for _, spec := range []faults.Spec{
		{MidAt: 1, MidCrash: 0.08},
		{MidAt: 1, MidLinkFail: 0.08},
		{LinkFail: 0.03, MidAt: 1, MidCrash: 0.05, MidLinkFail: 0.05},
		{Crash: 0.05, LinkFail: 0.03, MidAt: 1, MidCrash: 0.05, MidLinkFail: 0.05},
	} {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, quarantine := range []bool{false, true} {
				nw := faultyNet(topology.Grid(20, 20), spec, seed)
				views := []*TreeView{NewFast(nw).View()}
				if spec.Structural() {
					hr, _, err := HealRerooted(nw)
					if err != nil {
						t.Fatal(err)
					}
					views = append(views, hr.View)
				}
				nw.Faults.Tick()
				if quarantine {
					for i, u := range views[len(views)-1].Order {
						if i%13 == 7 {
							nw.Faults.Quarantine(u)
						}
					}
				}
				for _, v := range views {
					err := NewFastView(nw, v).checkComplete(nw.Faults)
					if want := oracleCheckComplete(v, nw.Faults); !reflect.DeepEqual(err, want) {
						t.Fatalf("%+v seed %d: checkComplete %v, oracle %v", spec, seed, err, want)
					}
					if err != nil {
						incomplete++
					}
				}
			}
		}
	}
	if incomplete == 0 {
		t.Fatal("no strike left a view incomplete")
	}
}
