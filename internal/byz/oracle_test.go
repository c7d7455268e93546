package byz

// Reference oracle for the audit plane: the audit round exactly as it was
// before the flat rewrite (recursive descent, one map-backed convergecast
// per audited subtree, one atomic Meter.Charge per edge), kept verbatim so
// the identity tests below can hold the production code to it bit for bit.

import (
	"fmt"
	"reflect"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// oracleLocalize is Localize's round loop over the oracle audit round.
func oracleLocalize(nw *netsim.Network, view *spantree.TreeView) (*Report, *spantree.TreeView, error) {
	plan := nw.Faults
	rep := &Report{}
	if plan == nil || !plan.Adversarial() {
		rep.Rounds = 1
		return rep, view, nil
	}
	before := nw.Meter.Snapshot()
	seen := make(map[topology.NodeID]bool)
	clean := 0
	for round := 0; clean < 2 && round < 2*(nw.N()+1); round++ {
		rep.Rounds++
		nonce := faults.Mix64((nw.Seed() ^ auditStream) + uint64(round))
		convicted := oracleAuditRound(nw, view, nonce, rep, seen)
		if len(convicted) == 0 {
			clean++
			continue
		}
		clean = 0
		for _, u := range convicted {
			plan.Quarantine(u)
		}
		rep.Quarantined = append(rep.Quarantined, convicted...)
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			return nil, nil, fmt.Errorf("byz: re-heal after quarantine: %w", err)
		}
		rep.Healed = hr
		view = hr.View
	}
	rep.AuditBits = nw.Meter.Since(before).TotalBits
	return rep, view, nil
}

// oracleAuditRound descends from the root: audit every root-child subtree, and
// inside every mismatching subtree re-audit the children. A subtree that
// mismatches while all its children pass convicts its own root.
func oracleAuditRound(nw *netsim.Network, view *spantree.TreeView, nonce uint64, rep *Report, seen map[topology.NodeID]bool) []topology.NodeID {
	var convicted []topology.NodeID
	var descend func(v topology.NodeID) bool
	descend = func(v topology.NodeID) bool {
		if oracleAuditSubtree(nw, view, v, nonce, rep) {
			return false
		}
		if !seen[v] {
			seen[v] = true
			rep.Suspected = append(rep.Suspected, v)
		}
		childBad := false
		for _, c := range view.Children(v) {
			if descend(c) {
				childBad = true
			}
		}
		if !childBad {
			convicted = append(convicted, v)
		}
		return true
	}
	for _, c := range view.Children(view.Root) {
		descend(c)
	}
	return convicted
}

// oracleAuditSubtree runs the challenge-sum audit over v's subtree and reports
// whether it matched the root's expectation. The audit is its own wire
// protocol: the root relays a nonce frame down the tree path to v, v
// floods it through the subtree, and the gamma-coded (Σχ, count) partial
// converges back up and is relayed to the root — every bit charged to the
// meter. Control frames are delivered reliably (the same ARQ assumption
// as the repair handshake), but Byzantine nodes corrupt their partial —
// including v itself, which lies in the relay — so a lying subtree cannot
// audit clean.
func oracleAuditSubtree(nw *netsim.Network, view *spantree.TreeView, v topology.NodeID, nonce uint64, rep *Report) bool {
	plan := nw.Faults
	m := nw.Meter
	rep.Audits++

	// Announce: 4-bit audit opcode plus the gamma-coded round counter
	// (nodes derive the nonce from the shared plan seed), relayed along
	// the root→v tree path and flooded down the subtree.
	frameBits := 4 + bitio.GammaWidth(nonce&0xFF)
	for u := v; u != view.Root; u = view.Parent[u] {
		m.Charge(view.Parent[u], u, frameBits)
	}

	// Post-order convergecast over the subtree. The walk is iterative
	// (explicit queue) so deep chain topologies cannot overflow the Go
	// stack, and partials live in a map keyed by node — subtrees are
	// usually a small fraction of the network. Each partial carries two
	// challenge sums over independent streams plus the node count.
	type partial struct{ x1, x2, y uint64 }
	parts := make(map[topology.NodeID]partial)
	var exp partial
	order := []topology.NodeID{v}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		order = append(order, view.Children(u)...)
		if u != v {
			m.Charge(view.Parent[u], u, frameBits) // subtree flood of the announce
		}
		exp.x1 += chi(nonce, u)
		exp.x2 += chi(nonce^chiStream2, u)
		exp.y++
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		p := partial{x1: chi(nonce, u), x2: chi(nonce^chiStream2, u), y: 1}
		for _, c := range view.Children(u) {
			cp := parts[c]
			p.x1 += cp.x1
			p.x2 += cp.x2
			p.y += cp.y
			delete(parts, c)
		}
		// Byzantine nodes corrupt the audit sums they report — interior
		// nodes on the tree edge to their parent, v itself in the relay
		// to the root below.
		if plan.Byzantine(u) {
			lie := plan.LieWord(u)
			p.x1 = faults.CorruptValue(p.x1, lie)
			p.x2 = faults.CorruptValue(p.x2, lie)
		}
		if u != v {
			m.Charge(u, view.Parent[u], bitio.GammaWidth(p.x1)+bitio.GammaWidth(p.x2)+bitio.GammaWidth(p.y))
		}
		parts[u] = p
	}
	got := parts[v]
	for u := v; u != view.Root; u = view.Parent[u] {
		m.Charge(u, view.Parent[u], bitio.GammaWidth(got.x1)+bitio.GammaWidth(got.x2)+bitio.GammaWidth(got.y))
	}
	return got == exp
}

// identityTopologies is the shared topology axis of the identity matrix.
func identityTopologies() []*topology.Graph {
	return []*topology.Graph{
		topology.Grid(12, 12),
		topology.Line(120),
		topology.Star(60),
		topology.Barbell(90),
		topology.DenseGrid(10, 10),
	}
}

// requireSameRun asserts that two localization runs — production on nw,
// oracle on ref — are indistinguishable: report, returned view, re-heal
// result, every per-node counter, and the liars' lie
// sequences afterwards (one LieWord per Byzantine member per audit is what
// keeps every later equivocating answer unchanged).
func requireSameRun(t *testing.T, nw, ref *netsim.Network, rep, refRep *Report, view, refView *spantree.TreeView) {
	t.Helper()
	if rep.Rounds != refRep.Rounds || rep.Audits != refRep.Audits || rep.AuditBits != refRep.AuditBits {
		t.Fatalf("report: rounds/audits/bits %d/%d/%d, oracle %d/%d/%d",
			rep.Rounds, rep.Audits, rep.AuditBits, refRep.Rounds, refRep.Audits, refRep.AuditBits)
	}
	if !reflect.DeepEqual(rep.Suspected, refRep.Suspected) {
		t.Fatalf("Suspected %v, oracle %v", rep.Suspected, refRep.Suspected)
	}
	if !reflect.DeepEqual(rep.Quarantined, refRep.Quarantined) {
		t.Fatalf("Quarantined %v, oracle %v", rep.Quarantined, refRep.Quarantined)
	}
	if !sameHeal(rep.Healed, refRep.Healed) {
		t.Fatalf("Healed %+v, oracle %+v", rep.Healed, refRep.Healed)
	}
	if !view.Equal(refView) {
		t.Fatal("returned view differs from the oracle's")
	}
	for u := 0; u < nw.N(); u++ {
		id := topology.NodeID(u)
		if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) ||
			nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
			nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
			t.Fatalf("node %d: sent/recv/msgs %d/%d/%d, oracle %d/%d/%d", u,
				nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
				ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
		}
		if nw.Faults.Byzantine(id) && nw.Faults.LieWord(id) != ref.Faults.LieWord(id) {
			t.Fatalf("liar %d: lie sequence diverged from the oracle's", u)
		}
	}
}

// identityMatrix calls f for every cell of the generated matrix topology ×
// ByzMode × Byz rate × structural faults × seed with an active fault plan.
func identityMatrix(f func(g *topology.Graph, spec faults.Spec, seed uint64)) {
	for _, g := range identityTopologies() {
		for _, mode := range []string{faults.ByzCorrupt, faults.ByzEquivocate, faults.ByzCollude} {
			for _, byzRate := range []float64{0, 0.05, 0.2} {
				for _, structural := range []float64{0, 0.03} {
					for seed := uint64(1); seed <= 5; seed++ {
						spec := faults.Spec{Byz: byzRate, ByzMode: mode, Crash: structural, LinkFail: structural}
						if spec.Active() {
							f(g, spec, seed)
						}
					}
				}
			}
		}
	}
}

// TestLocalizeMatchesOracle holds Localize to the reference audit over the
// generated matrix.
func TestLocalizeMatchesOracle(t *testing.T) {
	liars := 0
	identityMatrix(func(g *topology.Graph, spec faults.Spec, seed uint64) {
		nw, ref := buildNet(t, g, spec, seed), buildNet(t, g, spec, seed)
		liars += nw.Faults.ByzantineCount()
		rep, view, err := Localize(nw, healedView(t, nw))
		refRep, refView, refErr := oracleLocalize(ref, healedView(t, ref))
		if err != nil || refErr != nil {
			t.Fatalf("%s %v seed %d: err %v, oracle err %v", g.Name, spec, seed, err, refErr)
		}
		requireSameRun(t, nw, ref, rep, refRep, view, refView)
	})
	if liars == 0 {
		t.Fatal("the matrix produced no Byzantine node")
	}
}

// TestReplayMatchesLocalize is the contract the engine's shared audit and
// cross-check rest on: over the same matrix, a fork fast-forwarded from
// another fork's recorded outcome is indistinguishable from one that ran
// Localize → NewRobustNet → CrossCheck itself — report, view, integrity,
// every per-node counter, every liar's next lie word (all via
// requireSameRun) and the quarantine set, also after one more trimmed query
// on each plane — and recording changes nothing about the run that is
// recorded.
func TestReplayMatchesLocalize(t *testing.T) {
	quarantined, flagged := 0, 0
	// p = 2 is a coarse sketch whose honest false alarms flag whole rosters
	// (no audited plane is left a liar to trim), so the replayed sector
	// flags are exercised; p = 8 is a realistic one.
	replayMatrix := func(f func(g *topology.Graph, spec faults.Spec, seed uint64, p int)) {
		identityMatrix(func(g *topology.Graph, spec faults.Spec, seed uint64) {
			if spec.Byz > 0 {
				f(g, spec, seed, 2)
				f(g, spec, seed, 8)
			}
		})
	}
	replayMatrix(func(g *topology.Graph, spec faults.Spec, seed uint64, p int) {
		rec, fwd, ref := buildNet(t, g, spec, seed), buildNet(t, g, spec, seed), buildNet(t, g, spec, seed)
		out, recRep, recNet, err := Record(rec, healedView(t, rec), WithSketchP(p))
		refRep, refView, refErr := Localize(ref, healedView(t, ref))
		if err != nil || refErr != nil {
			t.Fatalf("%s %v seed %d p=%d: err %v, reference err %v", g.Name, spec, seed, p, err, refErr)
		}
		refNet := NewRobustNet(ref, refView, WithSketchP(p))
		refNet.CrossCheck()
		fwdRep, fwdNet := out.Replay(fwd, healedView(t, fwd), WithSketchP(p)) // the state a fork is in when it reaches the audit
		for u := 0; u < g.N(); u++ {
			id := topology.NodeID(u)
			if fwd.Faults.Quarantined(id) != ref.Faults.Quarantined(id) || rec.Faults.Quarantined(id) != ref.Faults.Quarantined(id) {
				t.Fatalf("%s %v seed %d p=%d: node %d quarantined: replayed %v, recorded %v, reference %v", g.Name, spec, seed, p, u,
					fwd.Faults.Quarantined(id), rec.Faults.Quarantined(id), ref.Faults.Quarantined(id))
			}
		}
		if fwd.Faults.QuarantinedCount() != ref.Faults.QuarantinedCount() {
			t.Fatalf("%s %v seed %d p=%d: %d quarantined after replay, reference %d", g.Name, spec, seed, p,
				fwd.Faults.QuarantinedCount(), ref.Faults.QuarantinedCount())
		}
		quarantined += ref.Faults.QuarantinedCount()
		want := refNet.Integrity()
		if want.Trims > 0 {
			flagged++
		}
		for _, side := range []struct {
			name string
			r    *RobustNet
		}{{"recorded", recNet}, {"replayed", fwdNet}} {
			if got := side.r.Integrity(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v seed %d p=%d: %s integrity %+v, reference %+v", g.Name, spec, seed, p, side.name, got, want)
			}
		}
		// One more trimmed query on each plane: it reads the restored sector
		// flags, charges the meters and draws the liars' next lie words.
		preds := []wire.Pred{wire.Less(rec.MaxX / 3), wire.Less(rec.MaxX / 2), wire.True()}
		wantVec := refNet.CountVec(core.Linear, preds, nil)
		for _, r := range []*RobustNet{recNet, fwdNet} {
			if got := r.CountVec(core.Linear, preds, nil); !reflect.DeepEqual(got, wantVec) {
				t.Fatalf("%s %v seed %d p=%d: CountVec %v after the cross-check, reference %v", g.Name, spec, seed, p, got, wantVec)
			}
			if got, want := r.Integrity(), refNet.Integrity(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v seed %d p=%d: integrity %+v after the follow-up query, reference %+v", g.Name, spec, seed, p, got, want)
			}
		}
		// requireSameRun draws one lie word per liar from both sides, so the
		// reference serves the first comparison from a copy of its counters.
		seq := ref.Faults.LieSeq()
		requireSameRun(t, rec, ref, recRep, refRep, recNet.view, refView)
		for u, s := range seq {
			ref.Faults.SetLieSeq(topology.NodeID(u), s)
		}
		requireSameRun(t, fwd, ref, fwdRep, refRep, fwdNet.view, refView)
	})
	if quarantined == 0 || flagged == 0 {
		t.Fatalf("the matrix quarantined %d nodes and left %d cross-checked planes with a trim: the replay would prove little", quarantined, flagged)
	}
}

// TestLocalizeDeepChain is the stack-depth contract: on a 5000-node line
// whose only liar sits at the far end every ancestor fails its audit, so
// the descent goes 5000 levels deep. It must convict exactly the liar and
// charge exactly what the oracle charges.
func TestLocalizeDeepChain(t *testing.T) {
	const n = 5000
	g := topology.Line(n)
	// Liar membership is a pure hash of (fault seed, id); this pinned seed
	// makes node n-1 the only liar at rate 1/n (checked below, so a change
	// to the membership stream fails here rather than weakening the test).
	const seed = 16484
	spec := faults.Spec{Byz: 1.0 / n, ByzMode: faults.ByzEquivocate, Seed: seed}
	nw, ref := buildNet(t, g, spec, seed), buildNet(t, g, spec, seed)
	if nw.Faults.ByzantineCount() != 1 || !nw.Faults.Byzantine(n-1) {
		t.Fatalf("seed %d no longer pins the only liar at node %d", seed, n-1)
	}
	rep, view, err := Localize(nw, healedView(t, nw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != n-1 {
		t.Fatalf("quarantined %v, want exactly [%d]", rep.Quarantined, n-1)
	}
	if len(rep.Suspected) != n-1 {
		t.Fatalf("%d subtrees suspected, want every one of the %d below the root", len(rep.Suspected), n-1)
	}
	refRep, refView, err := oracleLocalize(ref, healedView(t, ref))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, nw, ref, rep, refRep, view, refView)
}

// sameHeal reports whether two repair results agree field for field, their
// views compared as trees (TreeView.Equal).
func sameHeal(a, b *spantree.HealResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.View, y.View = nil, nil
	return x == y && a.View.Equal(b.View)
}
