// Package spantree executes broadcast and convergecast over the network's
// rooted spanning tree — the substrate the paper's primitive protocols
// (Fact 2.1) run on, following TAG [9] and Peleg [13].
//
// A convergecast runs one of two disjoint contracts, each with one codec.
// A VecCombiner's partial is a fixed number of machine words
// (ConvergecastVec): the partials stay on a two-level ring whatever the
// fault plan, every edge is priced from the encoded length the combiner
// computes, and the root's vector comes back unboxed, so a warm
// convergecast allocates nothing. A Combiner's partial is boxed
// (Convergecast): every edge is encoded with AppendPartial into a pooled
// per-worker wire.Arena buffer and decoded.
//
// One engine executes every tree operation: FastEngine, a bottom-up
// schedule over the view's BFS positions. There is one child layout:
// topology.Tree lays its nodes out in BFS positions, each node's children
// a contiguous range of Order, and every view (TreeView) reads children
// the same way and carries its sweep schedule — each position's first
// child and each level's first position — from birth. A full view's
// schedule is its tree's own arrays; a healed view builds its own in the
// BFS that assembles it, a subtree view in the pass that carves it.
// Healed views come from the one repair, HealRerooted.
// Sequentially, a convergecast sweeps the view level by level. On a team of w (SetWorkers; the query
// engine gives each execution unit of a Submit a team of its pool's
// workers divided by the Submit's units), it sweeps the view's subtree
// partition: the top part holds the nodes whose subtree exceeds ⌈N/4w⌉
// nodes, every other child of a top node roots a frontier subtree, and the
// frontier subtrees are cut into w runs of about equal size. Each member
// sweeps its run bottom-up on a ring of its own and parks each frontier
// root's partial in a frontier slot; after the join, the caller sweeps the
// top part, copying the frontier partials in. Broadcasts split the view
// into w contiguous chunks. Shares run on the calling goroutine and on a
// process-wide pool of at most GOMAXPROCS-1 resident helpers, which
// spin-yield about one sweep between shares, park after that and exit
// once idle for long; the partition lives in the run network's scratch,
// so a warm team operation allocates nothing. GoroutineEngine — every node
// a goroutine, every partial crossing its edge through the combiner's
// codec — is the round-trip reference the fast engine is differentially
// tested against: both produce identical results and identical bit
// meters, because every charge is the exact encoded length of the partial
// that crosses the edge. The fast engine's results and meters are the
// same on every schedule and at every team size.
package spantree

import (
	"fmt"
	"sync/atomic"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// Combiner is a generic aggregation program for convergecast, for
// partials that are not a fixed number of machine words (sketches,
// digests, multisets): the engine calls Local at every node, merges
// children into the accumulator bottom-up, and passes every partial through
// AppendPartial/Decode at each tree edge, so message sizes are the exact
// encoded bit lengths. Fixed-width partials implement VecCombiner instead.
//
// Local and Merge for different nodes may run concurrently (goroutine
// engine); implementations must not share mutable state across nodes.
type Combiner interface {
	// Local returns node n's own partial aggregate.
	Local(n *netsim.Node) any
	// Merge folds a child's decoded partial into the accumulator and
	// returns the new accumulator. It must be insensitive to child order.
	Merge(acc, child any) any
	// AppendPartial appends p's encoding to w — a pooled buffer the engine
	// borrows per edge and releases once the parent has decoded it.
	AppendPartial(w *bitio.Writer, p any)
	// Decode parses a received partial.
	Decode(pl wire.Payload) (any, error)
}

// Applier reacts to a broadcast payload at a node. It runs once per node,
// possibly concurrently across nodes.
type Applier func(n *netsim.Node, p wire.Payload)

// Ops is the root's interface to tree communication. Implementations charge
// every link traversal to the network meter.
type Ops interface {
	// Network returns the underlying network.
	Network() *netsim.Network
	// Broadcast delivers p from the root to every node, invoking apply at
	// each node (including the root). apply may be nil.
	Broadcast(p wire.Payload, apply Applier)
	// Convergecast aggregates c's partials up the tree and returns the
	// root's accumulated partial.
	Convergecast(c Combiner) (any, error)
	// ConvergecastVec aggregates vc's partials up the tree and returns the
	// root's partial vector (len VecWidth), unboxed. The slice may alias
	// scratch shared by every engine on the run network: it is valid until
	// the next operation of any engine on that network, and callers that
	// keep it longer must copy.
	ConvergecastVec(vc VecCombiner) ([]uint64, error)
}

// FastEngine executes tree operations over a TreeView — by default the
// network's full spanning tree; after self-healing (HealRerooted), the repaired
// tree over the surviving nodes — on one of two schedules. Sequentially,
// a convergecast sweeps the view level by level from the deepest up. On a
// team of w (SetWorkers), it sweeps the view's subtree partition: each
// member sweeps its frontier subtrees bottom-up, and after the join the
// caller sweeps the top part (see partition). Answers and every node's
// counters are identical on both schedules and at every team size.
//
// When the network carries a fault plan with message-level faults
// (netsim.Network.Faults), every convergecast edge passes the plan's
// drop/dup decision: a duplicated partial is merged twice at the parent (a
// retransmission both endpoints pay for again), a dropped partial
// discards the child's entire subtree contribution uncharged — the
// unreliable-link model that motivates the paper's §2.2 order- and
// duplicate-insensitive synopses (Considine et al. [2]; Nath et al. [10]).
type FastEngine struct {
	nw   *netsim.Network
	view *TreeView

	// workers is the team size: 0 or 1 runs every operation sequentially,
	// k > 1 runs every sweep and broadcast as k shares on a team.
	workers int

	// sh is the operation scratch every engine on the run network shares.
	// An engine runs one operation at a time and engines on one network
	// take turns — the network belongs to a single run — so a warm
	// operation allocates nothing, whichever view it sweeps.
	sh *netScratch
	// op is the state of the operation in flight.
	op sweepOp

	// verified is the fired plan the view last passed checkComplete under,
	// and verifiedQuar that plan's QuarantinedCount then. Once fired, a plan
	// changes only through Quarantine, so while both hold the view is still
	// whole and the per-sweep walk is skipped.
	verified     *faults.Plan
	verifiedQuar int
}

// netScratch is the execution scratch of every fast engine on one run
// network, parked on the network (netsim.Network.TreeScratch) so it rides
// through pooled reuse. None of it holds state between operations, so the
// full-view engine, a healed- or re-healed-view engine and every byz sector
// engine on the network reuse the same buffers. Partials live in slots: a
// convergecast partial is consumed exactly once, by the parent one level
// up, so each lane's ring is two level-wide halves, level l in half l&1,
// and a team sweep adds one frontier slot per frontier subtree. The rings
// grow to the widest operation seen and are never N-sized.
type netScratch struct {
	// tree and view cache the full view of the network's own spanning
	// tree, which every run on the network shares.
	tree *topology.Tree
	view *TreeView

	vec   []uint64 // vector slots, k words each
	vbits []int32  // encoded length of each vector slot
	boxed []any    // slots of the generic (boxed-partial) path
	// arenas holds one arena of payload buffers per team member of the
	// generic path.
	arenas []*wire.Arena

	// part is the subtree partition of the view and team size the last
	// team sweep ran on, rebuilt in place when either changes; errs holds
	// each member's error; team runs the shares.
	part partition
	errs []error
	team team

	// fates are the link fates of the network's graph and tree under the
	// fault plan in force, derived once per plan epoch and read by every
	// heal and completeness check on the network.
	fates faults.LinkFates
	// dead is checkComplete's bit per node.
	dead []uint64
}

// viewSched is a view's sweep schedule, built with the view and read-only
// after. It leans on the TreeView.Order invariant: a level is a contiguous
// range of positions, and so are the children of one position.
type viewSched struct {
	// cs[i] is the position of Order[i]'s first child; its children are
	// positions [cs[i], cs[i+1]).
	cs []int32
	// bounds[l] is the position level l starts at; bounds[levels] = N().
	bounds []int32
	// width is the widest level's node count: each half of the sequential
	// schedule's ring.
	width int
	// stamp identifies the schedule to the partition built from it.
	stamp uint64
}

// sweepOp is one operation's state, read by every share of it.
type sweepOp struct {
	s    *viewSched
	plan *faults.Plan
	c    Combiner
	vc   VecCombiner
	k    int
	// perEdge prices every delivery on its own: a plan's drop/dup
	// decisions reshape what each endpoint pays.
	perEdge bool

	// w is the operation's team size. A team sweep's members run
	// lanes[:w]; a team broadcast (bcast) delivers p in w chunks.
	w     int
	lanes []lane
	bcast bool
	p     wire.Payload
	apply Applier
}

var _ Ops = (*FastEngine)(nil)

// maxTeam caps the team size SetWorkers can ask for.
const maxTeam = 256

// scratchOf returns the scratch parked on nw, parking a fresh one first
// when there is none.
func scratchOf(nw *netsim.Network) *netScratch {
	sh, ok := nw.TreeScratch().(*netScratch)
	if !ok {
		sh = &netScratch{}
		nw.SetTreeScratch(sh)
	}
	return sh
}

// NewFast returns a fast engine over nw's full spanning tree. The view is
// cached beside the network's scratch, so repeated queries against one
// (possibly pooled) run network build it once.
func NewFast(nw *netsim.Network) *FastEngine {
	sh := scratchOf(nw)
	if sh.tree != nw.Tree {
		sh.tree, sh.view = nw.Tree, FullView(nw.Tree)
	}
	return &FastEngine{nw: nw, view: sh.view, sh: sh}
}

// NewFastView returns a fast engine executing over an explicit tree view —
// typically the repaired tree a HealRerooted run produced. Every view
// arrives with its sweep schedule; the operation scratch is the network's.
func NewFastView(nw *netsim.Network, view *TreeView) *FastEngine {
	return &FastEngine{nw: nw, view: view, sh: scratchOf(nw)}
}

// SetWorkers sets the engine's team size: 1 (or 0, the default) runs
// strictly sequential, k > 1 runs every sweep and broadcast as k shares —
// the caller's and those of resident helper goroutines, at most
// GOMAXPROCS-1 of them. Results and meters are identical across all
// settings; only wall-clock changes.
func (e *FastEngine) SetWorkers(k int) { e.workers = k }

// Network returns the underlying network.
func (e *FastEngine) Network() *netsim.Network { return e.nw }

// View returns the tree view the engine executes over.
func (e *FastEngine) View() *TreeView { return e.view }

// teamSize resolves the engine's workers setting.
func (e *FastEngine) teamSize() int { return min(max(e.workers, 1), maxTeam) }

// Broadcast implements Ops. Per-node work is independent (each node only
// touches its own state and meter cell and the shared immutable payload),
// so a team delivers it in contiguous chunks of positions; the charges are
// identical regardless of schedule. Over a malformed view it delivers and
// charges nothing: the convergecast that follows reports the view's error.
func (e *FastEngine) Broadcast(p wire.Payload, apply Applier) {
	if e.view.check() != nil {
		return
	}
	if sk := obs.Active(); sk != nil {
		e.obsBroadcast(sk, p)
	}
	w := e.teamSize()
	if w == 1 {
		e.broadcastRange(p, apply, 0, len(e.view.Order))
		return
	}
	e.op.w, e.op.bcast, e.op.p, e.op.apply = w, true, p, apply
	e.sh.team.run(e, w)
	e.op.bcast, e.op.p, e.op.apply = false, wire.Payload{}, nil
}

// flat reports whether the engine's view is the network's own tree, whose
// position i is storage slot i (netsim stores node Tree.Order[i] there):
// the metering of a uniform broadcast is then one flat pass over the cells.
func (e *FastEngine) flat() bool { return e.view == e.sh.view }

// broadcastRange delivers p to the view's positions [lo, hi). Each node
// charges its own fan-out (send side) and its own receive, so chunks of a
// team broadcast charge every edge exactly once.
func (e *FastEngine) broadcastRange(p wire.Payload, apply Applier, lo, hi int) {
	v := e.view
	m := e.nw.Meter
	bits := p.Bits()
	cs := v.sched.cs
	if e.flat() {
		m.ChargeBroadcastSeq(bits, cs, v.Root, lo, hi)
		if apply != nil {
			for _, u := range v.Order[lo:hi] {
				apply(e.nw.Nodes[u], p)
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		u := v.Order[i]
		if k := int(cs[i+1] - cs[i]); k > 0 {
			m.ChargeSendOnlySeq(u, bits, k)
		}
		if u != v.Root {
			m.ChargeRxSeq(u, bits)
		}
		if apply != nil {
			apply(e.nw.Nodes[u], p)
		}
	}
}

// share runs share m of the operation in flight: chunk m of a team
// broadcast, or member m's lane of a team sweep.
func (e *FastEngine) share(m int) {
	if e.op.bcast {
		n := len(e.view.Order)
		e.broadcastRange(e.op.p, e.op.apply, m*n/e.op.w, (m+1)*n/e.op.w)
		return
	}
	e.sh.errs[m] = e.pass(&e.op.lanes[m], m)
}

// Convergecast implements Ops: a bottom-up sweep in which each node's
// partial merges its children's. Disjoint subtrees aggregate
// independently, partials land in distinct slots, each node's meter cell
// is charged by the node's own step, and the fault plan's per-message
// decisions are sequenced per sender (each child sends to its parent
// exactly once per convergecast), so every schedule produces
// byte-identical results and meters.
//
// Each edge's payload borrows a pooled buffer from the sweeping member's
// arena and is released after decoding.
func (e *FastEngine) Convergecast(c Combiner) (any, error) {
	if err := e.begin(nil); err != nil {
		return nil, err
	}
	e.op.c = c
	sh := e.sh
	for len(sh.arenas) < e.op.w {
		sh.arenas = append(sh.arenas, wire.NewArena())
	}
	sh.boxed = grow(sh.boxed, e.slots())
	err := e.sweep()
	out := sh.boxed[0]
	sh.boxed[0] = nil
	e.op.c = nil
	return out, err
}

// begin is the prologue every convergecast shares: the phased fault
// clock, the completeness check, the obs event (vc is nil for a boxed
// combiner), the view's schedule and — on a team — the partition, which
// it leaves in e.op.
func (e *FastEngine) begin(vc VecCombiner) error {
	if plan := e.nw.Faults; plan != nil && plan.PhaseArmed() {
		// Each convergecast is one boundary of the phased fault clock. Once
		// the mid-flight faults strike, the view is checked for completeness
		// before the sweep runs: a dead subtree surfaces as
		// ErrSweepIncomplete instead of silently vanishing from the counts.
		// Unphased plans skip all of this, and a nil plan costs one branch.
		plan.Tick()
		if plan.PhaseFired() && (e.verified != plan || e.verifiedQuar != plan.QuarantinedCount()) {
			if err := e.checkComplete(plan); err != nil {
				return err
			}
			e.verified, e.verifiedQuar = plan, plan.QuarantinedCount()
		}
	}
	if sk := obs.Active(); sk != nil {
		e.obsConvergecast(sk, vc)
	}
	if err := e.view.check(); err != nil {
		return err
	}
	s, plan := &e.view.sched, e.nw.Faults
	e.op.s, e.op.plan, e.op.perEdge = s, plan, plan != nil && plan.Spec().MessageLevel()
	e.op.w, e.op.lanes = e.teamSize(), nil
	if e.op.w > 1 {
		e.op.lanes = e.sh.part.of(s, e.op.w)
		e.sh.errs = grow(e.sh.errs, e.op.w)
	}
	return nil
}

// check is the O(1) guard every operation runs before it walks the view:
// Order starts at the root, and the schedule's child starts cover Order.
func (v *TreeView) check() error {
	if len(v.Order) == 0 || v.Order[0] != v.Root {
		return fmt.Errorf("spantree: view Order does not start at its root %d", v.Root)
	}
	if len(v.sched.cs) != len(v.Order)+1 {
		return fmt.Errorf("spantree: view Order lists %d nodes but their Children lists reach %d", len(v.Order), len(v.sched.cs)-1)
	}
	return nil
}

// slots is the number of partial slots the operation's schedule uses.
func (e *FastEngine) slots() int {
	if e.op.w > 1 {
		return e.sh.part.slots
	}
	return 2 * e.op.s.width
}

// grow returns buf resized to n slots, reallocating only when its capacity
// falls short. Contents are unspecified: every kernel writes a slot before
// any parent reads it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// viewStamps numbers the schedules a partition may be built from: the
// partition keys on a number, not a pointer, so it keeps no view's
// schedule alive and no later schedule can reuse a key.
var viewStamps atomic.Uint64

// set installs child starts cs and level bounds as the schedule, with its
// widest level and a fresh stamp.
func (s *viewSched) set(cs, bounds []int32) {
	s.cs, s.bounds, s.width = cs, bounds, 0
	for l := 1; l < len(bounds); l++ {
		s.width = max(s.width, int(bounds[l]-bounds[l-1]))
	}
	s.stamp = viewStamps.Add(1)
}

// sweep runs one convergecast on the engine's schedule: sequentially, the
// one lane over the whole view; on a team, every member's lane of frontier
// subtrees, then — after the join — the top part's lane.
func (e *FastEngine) sweep() error {
	if e.op.w == 1 {
		seq := lane{lv: e.op.s.bounds, width: e.op.s.width} // one lane over the whole view
		return e.pass(&seq, 0)
	}
	clear(e.sh.errs)
	e.sh.team.run(e, e.op.w)
	for _, err := range e.sh.errs {
		if err != nil {
			return err
		}
	}
	return e.pass(&e.op.lanes[e.op.w], 0)
}

// pass sweeps one lane from its deepest level up; member picks the
// boxed path's arena.
func (e *FastEngine) pass(ln *lane, member int) error {
	for l := len(ln.lv) - 2; l >= 0; l-- {
		if ln.lv[l] == ln.lv[l+1] {
			continue
		}
		if e.op.vc != nil {
			e.levelVec(ln, l)
		} else if err := e.levelBoxed(ln, l, member); err != nil {
			return err
		}
	}
	return nil
}

// levelBoxed sweeps level l of lane ln on the generic path: a frontier
// root's parked partial moved into the top part's ring, or a node's local
// partial with each child's encoded partial charged, decoded, and merged in
// child order.
func (e *FastEngine) levelBoxed(ln *lane, l, member int) error {
	op, v, a, boxed := &e.op, e.view, e.sh.arenas[member], e.sh.boxed
	cs, c, plan := op.s.cs, op.c, op.plan
	lo, hi, mine, next, f, nr := ln.level(l)
	for t := lo; t < hi; t++ {
		i, dst := ln.entry(t, mine)
		if i < 0 {
			boxed[dst], boxed[ln.fb+f] = boxed[ln.fb+f], nil
			f++
			continue
		}
		if t-lo < nr {
			dst = ln.fb + f + t - lo
		}
		u := v.Order[i]
		acc := c.Local(e.nw.Nodes[u])
		recvBits := 0
		for j := int(cs[i]); j < int(cs[i+1]); j, next = j+1, next+1 {
			child := v.Order[j]
			w := a.Writer(64)
			c.AppendPartial(w, boxed[next])
			pl := wire.Borrowed(w)
			boxed[next] = nil
			deliveries := 1
			if plan != nil {
				deliveries = plan.Deliveries(child, u)
			}
			var err error
			for d := 0; d < deliveries; d++ {
				e.nw.Meter.ChargeSendOnlySeq(child, pl.Bits(), 1)
				recvBits += pl.Bits()
				var dec any
				if dec, err = c.Decode(pl); err != nil {
					err = fmt.Errorf("spantree: decoding partial from node %d: %w", child, err)
					break
				}
				acc = c.Merge(acc, dec)
			}
			a.Release(w)
			if err != nil {
				return err
			}
		}
		if recvBits > 0 {
			e.nw.Meter.ChargeRxSeq(u, recvBits)
		}
		boxed[dst] = acc
	}
	return nil
}
