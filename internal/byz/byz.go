// Package byz is the Byzantine-robust aggregation tier: it defends the
// convergecast against nodes that lie (faults.Spec.Byz) and prices every
// answer's residual exposure as an explicit integrity bound.
//
// The defense has three layers, all riding the paper's own machinery:
//
//   - Localization (Localize): a challenge-sum audit over subtrees. The
//     root broadcasts a round nonce; every node folds a 16-bit challenge
//     word χ(nonce, id) — a pure function of public identity — into a
//     gamma-coded (sum, count) convergecast. The root knows the view, so
//     it can compute every subtree's expected sums offline; a mismatch
//     convicts the subtree. Descent re-audits the children of every
//     mismatching subtree, and a subtree that mismatches while all its
//     children pass pins the lie on its own root — which is quarantined
//     (faults.Plan.Quarantine) and routed around by the existing
//     HELP/AVAIL/JOIN healing wave (spantree.HealRerooted treats quarantined
//     nodes exactly like crashed ones). Rounds repeat until an audit
//     pass is clean, so chains of liars unwind bottom-up.
//   - Trimmed subtree aggregation (RobustNet): queries run per-sector —
//     one aggregation per root-child subtree, relayed to the root — and
//     every sector partial is clamped against the sector's item capacity
//     (counts ≤ items, sums ≤ items·maxvalue, extrema in domain; a
//     TRUE-predicate count must equal the capacity exactly). A partial
//     that needed trimming marks its sector suspected.
//   - Sketch cross-check (RobustNet.CrossCheck): a duplicate-insensitive
//     LogLog estimate over the untrimmed tree, compared against the
//     trimmed count — the estimator folds hashed item keys, which the
//     value-corruption adversary cannot deflate, so a large deviation
//     exposes lies that stayed under every trim threshold.
//
// The integrity bound is the sum of the item capacities of sectors that
// are suspected but not quarantined: however those sectors lied, they
// cannot displace the answer by more than their own item mass, so rank
// answers (median, order statistics, counts) are correct to ± bound
// positions. A clean run — and any run whose liars were all quarantined —
// reports bound 0, and a robust run with no adversary produces values
// identical to the non-robust engine (the sector partials sum to exactly
// the global partials, so the k-ary probe schedule never diverges).
//
// Audit guarantees match the fault model's determinism: with a single
// corrupted subtree the liar is identified exactly (its relayed audit sum
// is corrupted by construction, while every honest subtree passes);
// multiple colluding liars are unwound over rounds unless their
// corruptions cancel inside one audit sum, which the seeded 16-bit
// challenge words make a measure-zero coincidence. Like the repair
// handshake, audit control frames ride the reliable ARQ link layer: their
// bits are charged to the meter, but message-level drop/dup does not
// forge audit evidence against honest subtrees.
package byz

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

// auditStream seeds the challenge-word stream independently of the fault
// plan's own decision streams; chiStream2 derives the second, independent
// challenge sum every audit carries — colluding liars whose corruptions
// cancel in one sum (two shared-word bit-flips of opposite sign do) must
// cancel in both simultaneously to slip one audit.
const (
	auditStream = 0xe7037ed1a0b428db
	chiStream2  = 0x2545f4914f6cdd1d
)

// chi is node u's challenge word for a round nonce: 16 bits, a pure
// function of (nonce, identity), so the root can evaluate any subtree's
// expected sum without touching the network.
func chi(nonce uint64, u topology.NodeID) uint64 {
	return faults.Mix64(nonce+uint64(u)*0x9e3779b97f4a7c15) & 0xFFFF
}

// Report is the outcome of one localization run.
type Report struct {
	// Suspected lists every subtree root that failed a challenge audit at
	// any point of the descent — including honest ancestors of liars,
	// which clear once the liar below them is quarantined.
	Suspected []topology.NodeID
	// Quarantined lists the convicted nodes, in conviction order.
	Quarantined []topology.NodeID
	// Rounds is the number of audit→quarantine→re-heal iterations,
	// including the two consecutive clean passes that end the loop (a
	// network that never lied reports 2).
	Rounds int
	// Audits is the number of subtree audits executed across all rounds.
	Audits int
	// AuditBits is the total audit and re-repair traffic charged to the
	// meter by the localization (included in the run's totals).
	AuditBits int64
	// Healed is the re-heal that followed the last quarantine (nil when
	// nothing was quarantined): the view the query should execute over.
	Healed *spantree.HealResult
}

// Localize runs the challenge-sum audit over the view, quarantines every
// convicted subtree root, re-heals around it, and repeats until an audit
// pass comes back clean. It returns the report and the view the query
// should execute over (the re-healed view after the last quarantine, or
// the input view unchanged when the network audits clean).
func Localize(nw *netsim.Network, view *spantree.TreeView) (*Report, *spantree.TreeView, error) {
	plan := nw.Faults
	rep := &Report{}
	if plan == nil || !plan.Adversarial() {
		rep.Rounds = 1
		return rep, view, nil
	}
	before := nw.Meter.Snapshot()
	// The auditor's O(N) scratch lives for this call only: reused across
	// rounds and audits, never parked on the (pooled) network.
	n := nw.N()
	a := &auditor{nw: nw, nodes: make([]auditNode, n), spine: make([]topology.NodeID, n), seen: make([]bool, n)}
	// Each round convicts at least one node while any audit mismatches
	// (the deepest mismatching subtree has no mismatching children), so
	// 2(N+1) rounds is a safe ceiling, never reached in practice. The
	// loop only stops after two consecutive clean rounds: the second
	// round re-audits under a fresh nonce, so colluding corruptions that
	// happened to cancel under one challenge must cancel again under
	// independent challenge words to stay hidden.
	clean := 0
	for round := 0; clean < 2 && round < 2*(n+1); round++ {
		rep.Rounds++
		nonce := faults.Mix64((nw.Seed() ^ auditStream) + uint64(round))
		convicted := a.round(view, nonce, rep)
		if len(convicted) == 0 {
			clean++
			continue
		}
		clean = 0
		for _, u := range convicted {
			plan.Quarantine(u)
		}
		rep.Quarantined = append(rep.Quarantined, convicted...)
		// The robust tier audits toward the tree root and has no re-root
		// story: a killed root fails the audit here, before the re-heal
		// charges any repair traffic.
		if root := nw.Tree.Root; plan.Excluded(root) {
			return nil, nil, fmt.Errorf("byz: re-heal after quarantine: root %d crashed — the robust tier does not re-root", root)
		}
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

// Outcome is a finished Localize and RobustNet.CrossCheck — functions of
// the view, the fault plan, the run seed and the sketch precision, never of
// the query or the sensed values — together with everything they changed on
// their network: a fork of the same deployment, run seed and fault plan that
// has not audited yet is fast-forwarded to the same state by Replay instead
// of running both again. An Outcome is compact, a few bytes a node, so a
// caller can keep one for as long as its deployment serves, and immutable,
// so replays may run concurrently.
type Outcome struct {
	// report is the audit's report; parent is the parent array of its
	// re-heal's view (nil when nothing was quarantined: the audited view is
	// then the view the audit started from) and healed that re-heal without
	// its view.
	report Report
	healed spantree.HealResult
	parent []topology.NodeID
	// charged is what the audit, its re-heals and the cross-check charged
	// each node; lies are the nonzero lie counters afterwards (a counter
	// only grows, so a zero one was zero on the recorded network and is on
	// a replaying one); suspected (per sector), trims and crossDev are the
	// plane's verdict.
	charged   netsim.Charges
	lies      []lieSeq
	suspected []bool
	trims     int
	crossDev  float64
}

// lieSeq is one liar's position in its lie sequence.
type lieSeq struct {
	u   topology.NodeID
	seq uint64
}

// Record runs Localize on nw, builds the RobustNet over the audited view
// and cross-checks it, and records the outcome. It returns the outcome and
// nw's own report and cross-checked plane. Without an adversary there is
// nothing to audit or cross-check (both cost traffic): the outcome and the
// report are nil, and so is what a nil Outcome replays.
func Record(nw *netsim.Network, view *spantree.TreeView, opts ...Option) (*Outcome, *Report, *RobustNet, error) {
	if nw.Faults == nil || !nw.Faults.Adversarial() {
		return nil, nil, NewRobustNet(nw, view, opts...), nil
	}
	before := nw.Meter.Ledger()
	rep, view, err := Localize(nw, view)
	if err != nil {
		return nil, nil, nil, err
	}
	r := NewRobustNet(nw, view, opts...)
	r.CrossCheck()
	o := &Outcome{report: *rep, charged: nw.Meter.ChargedSince(before),
		suspected: make([]bool, len(r.sectors)), trims: r.trims, crossDev: r.crossDev}
	if rep.Healed != nil {
		o.report.Healed, o.healed, o.parent = nil, *rep.Healed, view.Parent
		o.healed.View = nil
	}
	seqs, n := nw.Faults.LieSeq(), 0
	for _, seq := range seqs {
		if seq != 0 {
			n++
		}
	}
	o.lies = make([]lieSeq, 0, n)
	for u, seq := range seqs {
		if seq != 0 {
			o.lies = append(o.lies, lieSeq{topology.NodeID(u), seq})
		}
	}
	for i, s := range r.sectors {
		o.suspected[i] = s.suspected
	}
	return o, rep, r, nil
}

// Replay fast-forwards nw, which must be in the state the recorded network
// was in when Record was called — view is its view then: every per-node
// counter, the quarantine set and every liar's next LieWord end up exactly
// where the audit and the cross-check left them there. Given Record's opts,
// it returns nw's report, its re-heal's view rebuilt, and nw's plane over
// the audited view, cross-checked; the plane's whole-view sketch instances
// restart from the first (no robust kind draws one).
func (o *Outcome) Replay(nw *netsim.Network, view *spantree.TreeView, opts ...Option) (*Report, *RobustNet) {
	if o == nil {
		return nil, NewRobustNet(nw, view, opts...)
	}
	nw.Meter.Replay(o.charged)
	for _, u := range o.report.Quarantined {
		nw.Faults.Quarantine(u)
	}
	for _, l := range o.lies {
		nw.Faults.SetLieSeq(l.u, l.seq)
	}
	rep := o.report
	if o.parent != nil {
		healed := o.healed
		healed.View = spantree.ViewFromParents(o.parent, view.Root)
		rep.Healed, view = &healed, healed.View
	}
	r := NewRobustNet(nw, view, opts...)
	for i, s := range r.sectors {
		s.suspected = o.suspected[i]
	}
	r.trims, r.crossRan, r.crossDev = o.trims, true, o.crossDev
	return &rep, r
}

// auditor is one Localize call's audit state. The simulator does not walk
// an audited subtree node by node: the root knows the view, the meter is
// purely additive per node, and a subtree without a Byzantine member
// reports exactly its expectation — so each round evaluates every subtree
// once, each audit re-evaluates only the dirty part of its subtree, and
// the round's traffic is accumulated per node and charged in one pass.
type auditor struct {
	nw    *netsim.Network
	nodes []auditNode // indexed by NodeID
	// spine lists the round's dirty nodes (subtrees containing a Byzantine
	// member) in DFS preorder: parents before children, every subtree's
	// dirty members contiguous — reversed, a slice of it is the
	// convergecast schedule of one audit.
	spine []topology.NodeID
	stack []descentFrame
	seen  []bool // ever suspected, across rounds
}

// auditNode is one node's share of a round. A partial is (Σχ₁, Σχ₂, count)
// over the node's subtree; liars corrupt the two sums and never the count.
type auditNode struct {
	exp1, exp2 uint64 // the expected sums: what an honest subtree reports
	d1, d2     uint64 // Σ (reported − expected) over dirty children, pending inside one audit
	up         int64  // dirty nodes: Σ bits of the partials it reported in this round's audits
	relay      int64  // Σ bits of the verdict partials it relayed for audited strict descendants
	cnt        int32  // subtree size
	dirty      int32  // dirty nodes in the subtree; 0 = clean
	pos        int32  // dirty nodes: index in auditor.spine
	got        int32  // bits of the partial its own audit delivered; 0 = not audited this round
	relayN     int32  // audited strict descendants
	cover      int32  // audited ancestors, itself included
}

// descentFrame is one level of the audit descent: a subtree that failed
// its audit (or the root), the next child to audit, and whether any child
// failed so far.
type descentFrame struct {
	v    topology.NodeID
	next int
	bad  bool
}

func partialBits(x1, x2 uint64, cnt int32) int32 {
	return int32(bitio.GammaWidth(x1) + bitio.GammaWidth(x2) + bitio.GammaWidth(uint64(cnt)))
}

// round descends from the root: audit every root-child subtree, and inside
// every mismatching subtree re-audit the children. A subtree that
// mismatches while all its children pass convicts its own root. The
// descent keeps an explicit stack, so deep chain topologies cannot
// overflow the Go stack.
func (a *auditor) round(view *spantree.TreeView, nonce uint64, rep *Report) []topology.NodeID {
	plan, nodes := a.nw.Faults, a.nodes
	// Expectations, leaves first: every subtree's sums, size and dirt.
	for i := len(view.Order) - 1; i >= 0; i-- {
		u := view.Order[i]
		e := auditNode{exp1: chi(nonce, u), exp2: chi(nonce^chiStream2, u), cnt: 1}
		for _, c := range view.Children(u) {
			nc := &nodes[c]
			e.exp1 += nc.exp1
			e.exp2 += nc.exp2
			e.cnt += nc.cnt
			e.dirty += nc.dirty
		}
		if e.dirty > 0 || plan.Byzantine(u) {
			e.dirty++
		}
		nodes[u] = e
	}
	// Preorder positions, root first: a dirty node sits right before its
	// dirty children's subtrees, each as long as its dirty count.
	for _, u := range view.Order {
		if nodes[u].dirty == 0 {
			continue
		}
		a.spine[nodes[u].pos] = u
		next := nodes[u].pos + 1
		for _, c := range view.Children(u) {
			nodes[c].pos = next
			next += nodes[c].dirty
		}
	}

	var convicted []topology.NodeID
	stack := append(a.stack[:0], descentFrame{v: view.Root})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if ch := view.Children(f.v); f.next < len(ch) {
			c := ch[f.next]
			f.next++
			if !a.audit(view, c, rep) {
				f.bad = true
				if !a.seen[c] {
					a.seen[c] = true
					rep.Suspected = append(rep.Suspected, c)
				}
				stack = append(stack, descentFrame{v: c})
			}
			continue
		}
		if !f.bad && f.v != view.Root {
			convicted = append(convicted, f.v)
		}
		stack = stack[:len(stack)-1]
	}
	a.stack = stack

	a.flush(view, nonce)
	return convicted
}

// audit runs the challenge-sum audit over v's subtree and reports whether
// it matched the root's expectation. The audit is its own wire protocol:
// the root relays a nonce frame down the tree path to v, v floods it
// through the subtree, and the gamma-coded (Σχ₁, Σχ₂, count) partial
// converges back up and is relayed to the root — every bit charged to the
// meter (flush). Control frames are delivered reliably (the same ARQ
// assumption as the repair handshake), but Byzantine nodes corrupt the
// partial they report — interior nodes on the tree edge to their parent, v
// itself in the relay to the root — so a lying subtree cannot audit clean.
// Clean members report their expectation; only the dirty members are
// re-evaluated, each Byzantine one drawing exactly one lie word per audit
// (an equivocating liar lies differently in every audit that covers it).
func (a *auditor) audit(view *spantree.TreeView, v topology.NodeID, rep *Report) bool {
	rep.Audits++
	plan, nodes := a.nw.Faults, a.nodes
	nv := &nodes[v]
	if nv.dirty == 0 {
		nv.got = partialBits(nv.exp1, nv.exp2, nv.cnt)
		return true
	}
	spine := a.spine[nv.pos : nv.pos+nv.dirty]
	var x1, x2 uint64
	for i := len(spine) - 1; i >= 0; i-- {
		u := spine[i]
		nu := &nodes[u]
		x1, x2 = nu.exp1+nu.d1, nu.exp2+nu.d2
		nu.d1, nu.d2 = 0, 0
		if plan.Byzantine(u) {
			lie := plan.LieWord(u)
			x1 = faults.CorruptValue(x1, lie)
			x2 = faults.CorruptValue(x2, lie)
		}
		bits := partialBits(x1, x2, nu.cnt)
		nu.up += int64(bits)
		if u == v {
			nu.got = bits
			break
		}
		np := &nodes[view.Parent[u]]
		np.d1 += x1 - nu.exp1
		np.d2 += x2 - nu.exp2
	}
	return x1 == nv.exp1 && x2 == nv.exp2
}

// flush charges the round's audits to the meter. Per audit of v, every
// member of v's subtree and every ancestor of v below the root receives
// the announce frame (4-bit opcode plus the gamma-coded round counter —
// nodes derive the nonce from the shared plan seed) from its parent; every
// member sends its partial to its parent; and every ancestor of v below
// the root relays v's verdict partial one hop up. Summed over the round's
// audits that is, per tree edge, a frame count (audited ancestors plus
// audited descendants of the child) and an up-bit total, charged once.
func (a *auditor) flush(view *spantree.TreeView, nonce uint64) {
	nodes, m := a.nodes, a.nw.Meter
	frameBits := int64(4 + bitio.GammaWidth(nonce&0xFF))
	for _, u := range view.Order[1:] {
		nu := &nodes[u]
		nu.cover = nodes[view.Parent[u]].cover
		if nu.got > 0 {
			nu.cover++
		}
	}
	for i := len(view.Order) - 1; i > 0; i-- {
		u := view.Order[i]
		nu, p := &nodes[u], view.Parent[u]
		if frames := int64(nu.cover + nu.relayN); frames > 0 {
			up := nu.up
			if nu.dirty == 0 {
				up = int64(nu.cover) * int64(partialBits(nu.exp1, nu.exp2, nu.cnt))
			}
			m.ChargeEdgeSeq(p, u, frames*frameBits, frames)
			m.ChargeEdgeSeq(u, p, up+nu.relay, frames)
		}
		np := &nodes[p]
		np.relayN += nu.relayN
		np.relay += nu.relay
		if nu.got > 0 {
			np.relayN++
			np.relay += int64(nu.got)
		}
	}
}
