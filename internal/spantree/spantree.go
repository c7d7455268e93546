// Package spantree executes broadcast and convergecast over the network's
// rooted spanning tree — the substrate the paper's primitive protocols
// (Fact 2.1) run on, following TAG [9] and Peleg [13].
//
// One engine executes every tree operation: FastEngine, a level-ordered
// schedule — sequential on narrow levels, level-parallel (a worker pool
// sweeps each level's nodes) on wide ones. Vector combiners run on one
// kernel whatever the fault plan: partials stay on a two-level ring and
// every edge is priced from the encoded length the combiner computes, so a
// warm convergecast allocates nothing. Other combiners take the generic
// path, which encodes and decodes every edge through pooled per-worker
// wire.Arenas.
//
// GoroutineEngine — every node a goroutine, partials flowing through
// channels along tree edges — is the codec round-trip reference the fast
// engine is differentially tested against: both produce identical results
// and identical bit meters, because every charge is the exact encoded
// length of the partial that crosses the edge.
package spantree

import (
	"fmt"
	"runtime"
	"sync"

	"sensoragg/internal/bitio"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// Combiner is an aggregation program for convergecast. The engine calls
// Local at every node, merges children into the accumulator bottom-up, and
// passes every partial through Encode/Decode at each tree edge so message
// sizes are the exact encoded bit lengths.
//
// Local and Merge for different nodes may run concurrently (goroutine
// engine); implementations must not share mutable state across nodes.
type Combiner interface {
	// Local returns node n's own partial aggregate.
	Local(n *netsim.Node) any
	// Merge folds a child's decoded partial into the accumulator and
	// returns the new accumulator. It must be insensitive to child order.
	Merge(acc, child any) any
	// Encode serializes a partial for transmission to the parent.
	Encode(p any) wire.Payload
	// Decode parses a received partial.
	Decode(pl wire.Payload) (any, error)
}

// AppendCombiner is an optional Combiner extension for pooled payloads:
// AppendPartial writes exactly the bits Encode would produce into a
// caller-supplied writer, letting the engine borrow a pooled buffer
// instead of allocating a payload per tree edge. Implementations keep
// Encode as the copying fallback (typically delegating to AppendPartial)
// for payloads that escape the engine's checkout window.
type AppendCombiner interface {
	Combiner
	// AppendPartial appends p's encoding to w.
	AppendPartial(w *bitio.Writer, p any)
}

// ByzVecCombiner is an optional VecCombiner extension for the adversarial
// fault tier: when the network's fault plan marks a node Byzantine, the
// fast engine corrupts the node's outgoing partial at store time — after
// the honest local+merge step, before the encoding its parent reads — by
// calling CorruptVec with the plan's next lie word (faults.Plan.LieWord),
// which rewrites p in place into the lie the node reports. The combiner
// owns the mapping from lie word to a *legal* wire value (width masks,
// sentinels), so corrupted partials always decode, and the lie must differ
// from the honest partial whenever the partial domain admits a second
// value; combiners that do not implement the interface are simply immune.
// The engine never corrupts the root: the base station is the trusted
// querier.
type ByzVecCombiner interface {
	VecCombiner
	CorruptVec(p []uint64, lie uint64)
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
	// Name identifies the engine for test/bench labels.
	Name() string
}

// FastEngine executes tree operations on a level-ordered schedule over a
// TreeView — by default the network's full spanning tree; after
// self-healing (Heal), the repaired tree over the surviving nodes.
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

	// workers selects the execution schedule: 1 runs strictly sequential,
	// 0 (the default) auto-parallelizes wide levels across GOMAXPROCS
	// workers, and any k > 1 forces every level with ≥2 nodes across k
	// workers (the deterministic forced-parallel mode tests pin down).
	workers int

	// sh is the operation scratch every engine on the run network shares;
	// vs is what this engine derives from its own view. An engine runs one
	// operation at a time and engines on one network take turns — the
	// network belongs to a single run — so a warm operation allocates
	// nothing, whichever view it sweeps.
	sh *netScratch
	vs *viewSched
	// op is the state of the convergecast in flight.
	op sweepOp

	// watching caches Meter.Watching for the current operation: with no
	// watched edge the engine batches each node's receive charges into one
	// atomic update; with one it falls back to exact per-edge Charge.
	watching bool

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
// engine on the network reuse the same buffers. A convergecast partial is
// consumed exactly once, by the parent one level up, so only two adjacent
// levels are ever live: each ring below is two level-wide halves, level l
// in half l&1, a node's slot its position within its level. The rings grow
// to the widest operation seen and are never N-sized.
type netScratch struct {
	// tree, view and full cache the one view every run on the network
	// shares — its own spanning tree — and what is derived from it.
	tree *topology.Tree
	view *TreeView
	full *viewSched

	vec   []uint64 // vector ring, k words per slot
	vbits []int32  // encoded length of each vector-ring slot
	boxed []any    // ring of the generic (boxed-partial) path
	// arenas holds one arena of payload buffers per worker of the generic
	// path.
	arenas []*wire.Arena
}

// viewSched is what a sweep derives from a view, built on first use. It
// leans on the TreeView.Order invariant: a level is a contiguous range of
// positions, and so are the children of one position.
type viewSched struct {
	// cs[i] is the position of Order[i]'s first child; its children are
	// positions [cs[i], cs[i+1]).
	cs []int32
	// bounds[l] is the position level l starts at; bounds[levels] = N().
	bounds []int32
	// width is the widest level.
	width int
	// fanout[i] is Order[i]'s child count: the flat broadcast pass of the
	// network's own tree, whose position i is storage slot i.
	fanout []int32
}

// sweepOp is one convergecast's state, read by the level kernels.
type sweepOp struct {
	s    *viewSched
	plan *faults.Plan
	c    Combiner
	ac   AppendCombiner
	vc   VecCombiner
	k    int
	// perEdge prices every delivery on its own: a watched edge, or drop/dup
	// decisions that reshape what each endpoint pays.
	perEdge bool
}

var _ Ops = (*FastEngine)(nil)

// minParallelLevel is the level width below which the auto schedule stays
// sequential: narrower levels don't amortize the goroutine fan-out.
const minParallelLevel = 512

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

// NewFast returns a fast engine over nw's full spanning tree. The view and
// its schedule are cached beside the network's scratch, so repeated
// queries against one (possibly pooled) run network build them once.
func NewFast(nw *netsim.Network) *FastEngine {
	sh := scratchOf(nw)
	if sh.tree != nw.Tree {
		sh.tree, sh.view, sh.full = nw.Tree, FullView(nw.Tree), &viewSched{}
	}
	return &FastEngine{nw: nw, view: sh.view, sh: sh, vs: sh.full}
}

// NewFastView returns a fast engine executing over an explicit tree view —
// typically the repaired tree a Heal run produced. What it derives from
// the view is its own; its operation scratch is the network's.
func NewFastView(nw *netsim.Network, view *TreeView) *FastEngine {
	return &FastEngine{nw: nw, view: view, sh: scratchOf(nw), vs: &viewSched{}}
}

// SetWorkers pins the engine's schedule: 1 = strictly sequential, 0 = auto
// (parallel sweeps over levels wider than minParallelLevel), k > 1 = force
// k workers over every level. Results and meters are identical across all
// settings; only wall-clock changes.
func (e *FastEngine) SetWorkers(k int) { e.workers = k }

// Network returns the underlying network.
func (e *FastEngine) Network() *netsim.Network { return e.nw }

// View returns the tree view the engine executes over.
func (e *FastEngine) View() *TreeView { return e.view }

// Name implements Ops.
func (e *FastEngine) Name() string { return "fast" }

// Broadcast implements Ops. Per-node work is independent (each node only
// touches its own state and the shared immutable payload), so wide
// networks are swept by the worker pool; charges are atomic and identical
// regardless of schedule.
func (e *FastEngine) Broadcast(p wire.Payload, apply Applier) {
	e.watching = e.nw.Meter.Watching()
	if sk := obs.Active(); sk != nil {
		e.obsBroadcast(sk, p)
	}
	v := e.view
	n := len(v.Order)
	if e.vs == e.sh.full && !e.watching {
		// Fast path over the network's own tree, whose position i is
		// storage slot i (netsim stores node Tree.Order[i] there): the
		// metering of a uniform broadcast is one flat pass over the cells,
		// and the appliers (if any) walk the nodes in storage order.
		if e.vs.fanout == nil {
			e.vs.fanout = make([]int32, n)
			for i, u := range v.Order {
				e.vs.fanout[i] = int32(len(v.Children[u]))
			}
		}
		fanout := e.vs.fanout
		m := e.nw.Meter
		bits := p.Bits()
		if w := e.workersFor(n); w > 1 {
			p, apply := p, apply
			parallelChunks(n, w, func(_, lo, hi int) {
				m.ChargeBroadcastSeq(bits, fanout, v.Root, lo, hi)
				e.applyRange(p, apply, lo, hi)
			})
			return
		}
		m.ChargeBroadcastSeq(bits, fanout, v.Root, 0, n)
		e.applyRange(p, apply, 0, n)
		return
	}
	if w := e.workersFor(n); w > 1 {
		// Shadowing keeps the escaping closure from moving the parameters
		// to the heap on the sequential path (see Convergecast).
		p, apply := p, apply
		parallelChunks(n, w, func(_, lo, hi int) {
			e.broadcastRange(p, apply, lo, hi)
		})
		return
	}
	e.broadcastRange(p, apply, 0, n)
}

// applyRange runs apply, if any, at the view's positions [lo, hi).
func (e *FastEngine) applyRange(p wire.Payload, apply Applier, lo, hi int) {
	if apply == nil {
		return
	}
	for _, u := range e.view.Order[lo:hi] {
		apply(e.nw.Nodes[u], p)
	}
}

// broadcastRange delivers p to the view's positions [lo, hi). Each node
// charges its own fan-out (send side) and its own receive, so chunked
// parallel sweeps charge every edge exactly once.
func (e *FastEngine) broadcastRange(p wire.Payload, apply Applier, lo, hi int) {
	v := e.view
	m := e.nw.Meter
	bits := p.Bits()
	for i := lo; i < hi; i++ {
		u := v.Order[i]
		if e.watching {
			if u != v.Root {
				m.Charge(v.Parent[u], u, bits)
			}
		} else {
			if k := len(v.Children[u]); k > 0 {
				m.ChargeSendOnlySeq(u, bits, k)
			}
			if u != v.Root {
				m.ChargeRxSeq(u, bits)
			}
		}
		if apply != nil {
			apply(e.nw.Nodes[u], p)
		}
	}
}

// Convergecast implements Ops: a level-order sweep from the deepest level
// up. Nodes within one level have disjoint subtrees, so each level may be
// swept in parallel; partials land at distinct indices, meter charges are
// atomic, and the fault plan's per-message decisions are sequenced per
// sender (each child sends to its parent exactly once per convergecast),
// so every schedule produces byte-identical results and meters.
//
// A VecCombiner rides the vector ring (convergecastVec). On the generic
// path an AppendCombiner's edge payload borrows a pooled buffer from the
// sweeping worker's arena and is released after decoding; any other
// combiner pays a copying Encode per edge.
func (e *FastEngine) Convergecast(c Combiner) (any, error) {
	e.watching = e.nw.Meter.Watching()
	if plan := e.nw.Faults; plan != nil && plan.PhaseArmed() {
		// Each convergecast is one boundary of the phased fault clock. Once
		// the mid-flight faults strike, the view is checked for completeness
		// before the sweep runs: a dead subtree surfaces as
		// ErrSweepIncomplete instead of silently vanishing from the counts.
		// Unphased plans skip all of this, and a nil plan costs one branch.
		plan.Tick()
		if plan.PhaseFired() && (e.verified != plan || e.verifiedQuar != plan.QuarantinedCount()) {
			if err := e.checkComplete(plan); err != nil {
				return nil, err
			}
			e.verified, e.verifiedQuar = plan, plan.QuarantinedCount()
		}
	}
	if sk := obs.Active(); sk != nil {
		e.obsConvergecast(sk, c)
	}
	s, err := e.schedule()
	if err != nil {
		return nil, err
	}
	plan := e.nw.Faults
	e.op = sweepOp{s: s, plan: plan, c: c, perEdge: e.watching || (plan != nil && plan.Spec().MessageLevel())}
	if vc, ok := c.(VecCombiner); ok {
		return e.convergecastVec(vc)
	}
	e.op.ac, _ = c.(AppendCombiner)
	sh := e.sh
	workers := e.workersFor(s.width)
	for len(sh.arenas) < workers {
		sh.arenas = append(sh.arenas, wire.NewArena())
	}
	sh.boxed = grow(sh.boxed, 2*s.width)
	err = e.sweep((*FastEngine).levelBoxed)
	out := sh.boxed[0]
	sh.boxed[0] = nil
	return out, err
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

// schedule returns what the sweep derives from the engine's view, building
// it on first use: the child-position prefix sums, and the level bounds
// that fall out of them (level l+2 starts at the first child of level
// l+1's first node). It fails — instead of mis-merging — on a view whose
// Order is not the BFS of its Children.
func (e *FastEngine) schedule() (*viewSched, error) {
	s, v := e.vs, e.view
	if s.bounds != nil {
		return s, nil
	}
	n := len(v.Order)
	cs := make([]int32, n+1)
	next := 1
	for i, u := range v.Order {
		cs[i] = int32(next)
		next += len(v.Children[u])
	}
	cs[n] = int32(next)
	if n == 0 || v.Order[0] != v.Root {
		return nil, fmt.Errorf("spantree: view Order does not start at its root %d", v.Root)
	}
	if next != n {
		return nil, fmt.Errorf("spantree: view Order lists %d nodes but their Children lists reach %d", n, next)
	}
	levels, width := 0, 0
	for lo, hi := 0, 1; lo < n; lo, hi = hi, int(cs[hi]) {
		if hi <= lo {
			return nil, fmt.Errorf("spantree: view Order is not a BFS of its Children: positions from %d on are unreachable", lo)
		}
		levels++
		width = max(width, hi-lo)
	}
	bounds := make([]int32, levels+1)
	for l, b := 0, 1; l < levels; l, b = l+1, int(cs[b]) {
		bounds[l+1] = int32(b)
	}
	s.cs, s.bounds, s.width = cs, bounds, width
	return s, nil
}

// sweep runs one convergecast: levels from the deepest up, each level's
// positions handed to run in one piece or — on a wide level — in disjoint
// chunks across workers. Level l's partials land in ring half l&1 while
// its children's are read out of the other half.
func (e *FastEngine) sweep(run func(e *FastEngine, worker, l, lo, hi int) error) error {
	b := e.op.s.bounds
	for l := len(b) - 2; l >= 0; l-- {
		lo, hi := int(b[l]), int(b[l+1])
		w := e.workersFor(hi - lo)
		if w <= 1 {
			if err := run(e, 0, l, lo, hi); err != nil {
				return err
			}
			continue
		}
		errs := make([]error, w)
		// Shadow the captured variables inside this branch: the escaping
		// closure would otherwise move them to the heap at declaration and
		// charge the sequential path one allocation per level.
		l, lo := l, lo
		parallelChunks(hi-lo, w, func(worker, clo, chi int) {
			errs[worker] = run(e, worker, l, lo+clo, lo+chi)
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// chargeDelivery prices one delivery of bits from child to u under
// per-edge charging and returns what u's batched receive charge grows by: the
// child's send is charged now, u's receive now (watched) or once per step.
func (e *FastEngine) chargeDelivery(child, u topology.NodeID, bits int) int {
	if e.watching {
		e.nw.Meter.Charge(child, u, bits)
		return 0
	}
	e.nw.Meter.ChargeSendOnlySeq(child, bits, 1)
	return bits
}

// levelBoxed sweeps positions [lo, hi) of level l on the generic path: the
// local partial, then each child's encoded partial charged, decoded, and
// merged in child order.
func (e *FastEngine) levelBoxed(worker, l, lo, hi int) error {
	op, v, a := &e.op, e.view, e.sh.arenas[worker]
	s, c, ac, plan := op.s, op.c, op.ac, op.plan
	mine, kids := e.sh.boxed[s.half(l):], e.sh.boxed[s.half(l+1):]
	base, kbase := int(s.bounds[l]), int(s.bounds[l+1])
	for i := lo; i < hi; i++ {
		u := v.Order[i]
		acc := c.Local(e.nw.Nodes[u])
		recvBits := 0
		for j := int(s.cs[i]); j < int(s.cs[i+1]); j++ {
			child := v.Order[j]
			var pl wire.Payload
			var w *bitio.Writer
			if ac != nil {
				w = a.Writer(64)
				ac.AppendPartial(w, kids[j-kbase])
				pl = wire.Borrowed(w)
			} else {
				pl = c.Encode(kids[j-kbase])
			}
			kids[j-kbase] = nil
			deliveries := 1
			if plan != nil {
				deliveries = plan.Deliveries(child, u)
			}
			var err error
			for d := 0; d < deliveries; d++ {
				recvBits += e.chargeDelivery(child, u, pl.Bits())
				var dec any
				if dec, err = c.Decode(pl); err != nil {
					err = fmt.Errorf("spantree: decoding partial from node %d: %w", child, err)
					break
				}
				acc = c.Merge(acc, dec)
			}
			if w != nil {
				a.Release(w)
			}
			if err != nil {
				return err
			}
		}
		if recvBits > 0 {
			e.nw.Meter.ChargeRxSeq(u, recvBits)
		}
		mine[i-base] = acc
	}
	return nil
}

// half returns the ring slot level l's first position owns.
func (s *viewSched) half(l int) int { return (l & 1) * s.width }

// workersFor resolves the schedule for one sweep of the given width under
// the engine's workers setting.
func (e *FastEngine) workersFor(width int) int {
	switch {
	case e.workers == 1 || width < 2:
		return 1
	case e.workers > 1:
		if e.workers > width {
			return width
		}
		return e.workers
	default: // auto
		if width < minParallelLevel {
			return 1
		}
		w := runtime.GOMAXPROCS(0)
		if w > width {
			w = width
		}
		return w
	}
}

// parallelChunks splits [0, n) into contiguous chunks across workers and
// invokes fn(worker, lo, hi) on each, waiting for completion.
func parallelChunks(n, workers int, fn func(worker, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w*chunk < n; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
