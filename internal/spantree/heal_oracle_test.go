package spantree

// Reference oracle for the repair protocol: healToward and viewFromParents
// exactly as they were before the flat rewrite (per-node adjacency slices,
// sorted detached list, map of offers, one atomic Meter.Charge per frame),
// kept verbatim so the identity tests below can hold the production code
// to them bit for bit.

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
)

// oracleHealToward is the healing protocol body, parameterized over the querier
// to heal toward: Heal passes the spanning-tree root, HealRerooted may pass
// any surviving node (root-kill recovery — the attachFragment re-rooting
// already makes any fragment member a valid attachment point, so an
// arbitrary acting root is just "attach its fragment first").
func oracleHealToward(nw *netsim.Network, root topology.NodeID) (*HealResult, error) {
	plan := nw.Faults
	tree, g := nw.Tree, nw.Graph
	n := nw.N()
	before := nw.Meter.Snapshot()
	// Quarantined nodes (the byz tier's containment of convicted liars)
	// are treated exactly like crashed ones: their heartbeats go silent
	// and the HELP/AVAIL/JOIN wave re-routes their honest descendants
	// around them. With no quarantine, Excluded == Crashed and the repair
	// is byte-identical to the honest-fault behavior.
	alive := func(u topology.NodeID) bool { return !plan.Excluded(u) }

	// Phase 1 — heartbeats parent → child over surviving tree links.
	heard := make([]bool, n)
	for _, u := range tree.Order {
		if !alive(u) {
			continue
		}
		for _, c := range tree.Children(u) {
			if alive(c) && plan.LinkAlive(u, c) {
				nw.Meter.Charge(u, c, 1)
				heard[c] = true
			}
		}
	}

	// keptAdj is the undirected adjacency of surviving tree edges: the
	// forest whose components are the fragments.
	keptAdj := make([][]topology.NodeID, n)
	for c := 0; c < n; c++ {
		if heard[c] {
			p := tree.Parent[c]
			keptAdj[p] = append(keptAdj[p], topology.NodeID(c))
			keptAdj[c] = append(keptAdj[c], p)
		}
	}

	parent := make([]topology.NodeID, n)
	depth := make([]int, n)
	attached := make([]bool, n)
	fragment := make([]topology.NodeID, n) // fragment id = the fragment's orphan root
	for i := range parent {
		parent[i] = excludedParent
		depth[i] = -1
		fragment[i] = -1
	}

	// attachFragment re-roots the fragment containing graft at graft,
	// hanging it under par at the given depth: a BFS over kept edges flips
	// the parent pointers between the graft point and the fragment's old
	// root. It returns the newly attached nodes in BFS order.
	attachFragment := func(graft, par topology.NodeID, d int) []topology.NodeID {
		parent[graft] = par
		depth[graft] = d
		attached[graft] = true
		sub := []topology.NodeID{graft}
		for qi := 0; qi < len(sub); qi++ {
			u := sub[qi]
			for _, v := range keptAdj[u] {
				if !attached[v] {
					parent[v] = u
					depth[v] = depth[u] + 1
					attached[v] = true
					sub = append(sub, v)
				}
			}
		}
		return sub
	}

	// The initially attached region: the acting root's fragment. When the
	// acting root is the tree root, no pointers flip (it is already the
	// fragment's shallowest node); a re-rooted heal flips the fragment
	// under the new querier like any other graft.
	wave := attachFragment(root, -1, 0)

	// Phase 2 — each orphan root floods a detached marker down its
	// fragment (1 bit per kept edge), so members know to call for help.
	var orphanRoots []topology.NodeID
	var detached []topology.NodeID
	for u := 0; u < n; u++ {
		uid := topology.NodeID(u)
		// attached[u] skips members of the acting root's fragment: under a
		// re-rooted heal its old orphan root is already attached and must
		// not flood a second time.
		if uid == root || !alive(uid) || heard[u] || attached[u] {
			continue
		}
		orphanRoots = append(orphanRoots, uid)
		frag := []topology.NodeID{uid}
		fragment[uid] = uid
		for qi := 0; qi < len(frag); qi++ {
			v := frag[qi]
			for _, w := range keptAdj[v] {
				if fragment[w] == -1 && !attached[w] {
					nw.Meter.Charge(v, w, 1)
					fragment[w] = uid
					frag = append(frag, w)
				}
			}
		}
		detached = append(detached, frag...)
	}
	sort.Slice(detached, func(i, j int) bool { return detached[i] < detached[j] })

	// Phase 3 — every detached node sends HELP to its live neighbours.
	requests := make([][]topology.NodeID, n)
	for _, uid := range detached {
		for _, nbr := range g.Adj[uid] {
			if alive(nbr) && plan.LinkAlive(uid, nbr) {
				nw.Meter.Charge(uid, nbr, 1)
				requests[nbr] = append(requests[nbr], uid)
			}
		}
	}

	// Phase 4 — reattachment waves.
	type offer struct{ graft, from topology.NodeID }
	waves, reattached := 0, 0
	if len(orphanRoots) > 0 {
		for {
			// AVAIL: nodes attached in the previous wave answer pending
			// HELP requests from still-detached nodes.
			best := make(map[topology.NodeID]offer) // fragment id → best graft pair
			for _, u := range wave {
				for _, x := range requests[u] {
					if attached[x] {
						continue
					}
					nw.Meter.Charge(u, x, 1+bitio.GammaWidth(uint64(depth[u])))
					f := fragment[x]
					b, ok := best[f]
					if !ok || depth[u] < depth[b.from] ||
						(depth[u] == depth[b.from] && (u < b.from || (u == b.from && x < b.graft))) {
						best[f] = offer{graft: x, from: u}
					}
				}
				requests[u] = nil
			}
			if len(best) == 0 {
				break
			}
			waves++
			frags := make([]topology.NodeID, 0, len(best))
			for f := range best {
				frags = append(frags, f)
			}
			sort.Slice(frags, func(i, j int) bool { return frags[i] < frags[j] })
			// JOIN: each offered fragment grafts once, at the member with
			// the shallowest offerer, re-rooting the fragment there.
			wave = wave[:0]
			for _, f := range frags {
				b := best[f]
				nw.Meter.Charge(b.graft, b.from, 1)
				reattached++
				wave = append(wave, attachFragment(b.graft, b.from, depth[b.from]+1)...)
			}
		}
	}

	unreachable := 0
	for u := 0; u < n; u++ {
		if alive(topology.NodeID(u)) && !attached[u] {
			unreachable++
		}
	}
	return &HealResult{
		View:        oracleViewFromParents(parent, root),
		Crashed:     plan.CrashedCount(),
		OrphanRoots: len(orphanRoots),
		Reattached:  reattached,
		Unreachable: unreachable,
		Waves:       waves,
		Repair:      nw.Meter.Since(before),
	}, nil
}

// oracleViewFromParents assembles a TreeView from a parent array in which
// excluded nodes carry excludedParent. Children are listed in ID order and
// Order is BFS from the root; the view's schedule is the one the engine
// derived from those lists.
func oracleViewFromParents(parent []topology.NodeID, root topology.NodeID) *TreeView {
	children, order := OracleViewLists(parent, root)
	return oracleView(root, parent, order, children)
}

// requireSameHeal asserts a production heal on nw and an oracle heal on ref
// are indistinguishable: every HealResult field (the view's root, parents,
// order and child lists included) and every per-node counter. The
// schedule the healed view carries must be the one an engine derives from
// the oracle's view.
func requireSameHeal(t *testing.T, nw, ref *netsim.Network, res, refRes *HealResult) {
	t.Helper()
	if !res.View.Equal(refRes.View) {
		t.Fatalf("view differs from the oracle's:\n got %+v\nwant %+v", res.View, refRes.View)
	}
	got, want := *res, *refRes
	got.View, want.View = nil, nil
	if got != want {
		t.Fatalf("result %+v, oracle %+v", got, want)
	}
	s, refSched := &res.View.sched, &refRes.View.sched
	if !slices.Equal(s.cs, refSched.cs) || !slices.Equal(s.bounds, refSched.bounds) || s.width != refSched.width {
		t.Fatalf("carried schedule cs=%v bounds=%v width=%d, derived cs=%v bounds=%v width=%d",
			s.cs, s.bounds, s.width, refSched.cs, refSched.bounds, refSched.width)
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
	}
}

func healIdentityTopologies() []*topology.Graph {
	return []*topology.Graph{
		topology.Grid(16, 16),
		topology.Line(150),
		topology.Star(80),
		topology.Barbell(90),
		topology.DenseGrid(12, 12),
	}
}

// TestHealMatchesOracle holds Heal to the reference repair over the
// generated matrix topology × crash × linkfail × seed, and heals a second
// time after quarantining survivors (the byz tier's re-heal: excluded
// nodes that are not crashed).
func TestHealMatchesOracle(t *testing.T) {
	reattached, unreachable := 0, 0
	for _, g := range healIdentityTopologies() {
		for _, crash := range []float64{0, 0.03, 0.15} {
			for _, linkFail := range []float64{0, 0.03, 0.2} {
				for seed := uint64(1); seed <= 5; seed++ {
					spec := faults.Spec{Crash: crash, LinkFail: linkFail}
					nw, ref := faultyNet(g, spec, seed), faultyNet(g, spec, seed)
					res, _, err := HealRerooted(nw)
					if err != nil {
						t.Fatal(err)
					}
					refRes, err := oracleHealToward(ref, ref.Tree.Root)
					if err != nil {
						t.Fatal(err)
					}
					requireSameHeal(t, nw, ref, res, refRes)
					reattached += res.Reattached
					unreachable += res.Unreachable

					for i, u := range res.View.Order {
						if i%7 == 3 {
							nw.Faults.Quarantine(u)
							ref.Faults.Quarantine(u)
						}
					}
					if res, _, err = HealRerooted(nw); err != nil {
						t.Fatal(err)
					}
					if refRes, err = oracleHealToward(ref, ref.Tree.Root); err != nil {
						t.Fatal(err)
					}
					requireSameHeal(t, nw, ref, res, refRes)
				}
			}
		}
	}
	if reattached == 0 || unreachable == 0 {
		t.Fatalf("matrix too tame: %d reattached, %d unreachable", reattached, unreachable)
	}
}

// TestHealRerootedMatchesOracle kills the root mid-flight and compares the
// re-rooted repair, where the acting root's fragment flips under the new
// querier before any wave runs, over TestHealMatchesOracle's crash ×
// linkfail grid, with strikes that kill the root alone, crash survivors
// too, or kill links as well, with and without quarantines before the
// strike. A random geometric graph joins the topologies: its low node IDs
// sit anywhere in the tree, so the acting root (the lowest-ID survivor)
// can be interior to its fragment.
func TestHealRerootedMatchesOracle(t *testing.T) {
	interior, alone, only := 0, 0, 0
	graphs := append(healIdentityTopologies(), topology.RandomGeometric(200, 0, 2))
	strikes := []faults.Spec{{}, {MidCrash: 0.05}, {MidCrash: 0.05, MidLinkFail: 0.05}}
	for _, g := range graphs {
		for _, crash := range []float64{0, 0.03, 0.15} {
			for _, linkFail := range []float64{0, 0.03, 0.2} {
				for _, spec := range strikes {
					spec.Crash, spec.LinkFail, spec.MidAt, spec.MidKillRoot = crash, linkFail, 1, true
					for _, quarantine := range []bool{false, true} {
						for seed := uint64(1); seed <= 5; seed++ {
							nw, ref := faultyNet(g, spec, seed), faultyNet(g, spec, seed)
							if quarantine {
								for i, u := range nw.Tree.Order {
									if i%7 == 3 {
										nw.Faults.Quarantine(u)
										ref.Faults.Quarantine(u)
									}
								}
							}
							if !nw.Faults.Tick() || !ref.Faults.Tick() {
								t.Fatal("phased faults did not fire")
							}
							res, root, err := HealRerooted(nw)
							if err != nil {
								t.Fatal(err)
							}
							if root == nw.Tree.Root {
								t.Fatal("root survived the root kill")
							}
							refRes, err := oracleHealToward(ref, root)
							if err != nil {
								t.Fatal(err)
							}
							requireSameHeal(t, nw, ref, res, refRes)

							plan, tree := nw.Faults, nw.Tree
							kept := func(p, c topology.NodeID) bool {
								return !plan.Excluded(p) && !plan.Excluded(c) && plan.LinkAlive(p, c)
							}
							switch p := tree.Parent[root]; {
							case p >= 0 && kept(p, root):
								interior++
							case !slices.ContainsFunc(tree.Children(root), func(c topology.NodeID) bool { return kept(root, c) }):
								alone++
							}
							if res.OrphanRoots == 0 {
								only++
							}
						}
					}
				}
			}
		}
	}
	if interior == 0 || alone == 0 || only == 0 {
		t.Fatalf("matrix too tame: acting root interior to its fragment %d times, alone %d, the only fragment %d", interior, alone, only)
	}
}

// oracleCheckComplete is the completeness check as it was before the link
// fates were kept per plan epoch: every view edge hashed through
// Plan.LinkAlive, the dead marks a fresh slice per check.
func oracleCheckComplete(v *TreeView, plan *faults.Plan) error {
	if plan.Excluded(v.Root) {
		return &IncompleteSweepError{Root: v.Root, RootDead: true, Missing: v.N()}
	}
	dead := make([]bool, len(v.Parent))
	var frontier []topology.NodeID
	missing := 0
	for _, u := range v.Order {
		if u == v.Root {
			continue
		}
		p := v.Parent[u]
		switch {
		case dead[p]:
			dead[u] = true
			missing++
		case plan.Excluded(u) || !plan.LinkAlive(p, u):
			dead[u] = true
			frontier = append(frontier, u)
			missing++
		}
	}
	if missing == 0 {
		return nil
	}
	return &IncompleteSweepError{Root: v.Root, Frontier: frontier, Missing: missing}
}

// TestHealStrikeRehealMatchesOracle runs the sequence a query pays under a
// mid-sweep strike — Heal, the strike, the completeness check of the
// healed view, HealRerooted toward the live root — against the oracle on a
// twin network, over the generated topologies × seeds × strikes with and
// without MidLinkFail, with and without quarantines between the heals. The
// link fates the first heal derived are kept for the second only while no
// mid-flight link failure has struck.
func TestHealStrikeRehealMatchesOracle(t *testing.T) {
	incomplete, regrafted := 0, 0
	for _, g := range healIdentityTopologies() {
		for _, midLink := range []float64{0, 0.05} {
			for _, quarantine := range []bool{false, true} {
				for seed := uint64(1); seed <= 4; seed++ {
					spec := faults.Spec{Crash: 0.03, LinkFail: 0.02, MidAt: 1, MidCrash: 0.05, MidLinkFail: midLink}
					nw, ref := faultyNet(g, spec, seed), faultyNet(g, spec, seed)
					res, _, err := HealRerooted(nw)
					if err != nil {
						t.Fatal(err)
					}
					refRes, err := oracleHealToward(ref, ref.Tree.Root)
					if err != nil {
						t.Fatal(err)
					}
					requireSameHeal(t, nw, ref, res, refRes)
					if quarantine {
						for i, u := range res.View.Order {
							if i%11 == 5 {
								nw.Faults.Quarantine(u)
								ref.Faults.Quarantine(u)
							}
						}
					}
					if !nw.Faults.Tick() || !ref.Faults.Tick() {
						t.Fatal("phased faults did not fire")
					}
					err = NewFastView(nw, res.View).checkComplete(nw.Faults)
					if refErr := oracleCheckComplete(refRes.View, ref.Faults); !reflect.DeepEqual(err, refErr) {
						t.Fatalf("%s seed %d: checkComplete %v, oracle %v", g.Name, seed, err, refErr)
					}
					if err != nil {
						incomplete++
					}
					res, root, err := HealRerooted(nw)
					if err != nil {
						t.Fatal(err)
					}
					if root != nw.Tree.Root {
						t.Fatalf("acting root %d, want the live tree root %d", root, nw.Tree.Root)
					}
					refRes, err = oracleHealToward(ref, root)
					if err != nil {
						t.Fatal(err)
					}
					requireSameHeal(t, nw, ref, res, refRes)
					regrafted += res.Reattached
					if err := NewFastView(nw, res.View).checkComplete(nw.Faults); err != nil {
						t.Fatalf("%s seed %d: re-healed view incomplete: %v", g.Name, seed, err)
					}
				}
			}
		}
	}
	if incomplete == 0 || regrafted == 0 {
		t.Fatalf("matrix too tame: %d incomplete views, %d fragments regrafted", incomplete, regrafted)
	}
}
