package netsim

import (
	"fmt"
	"runtime"
	"sync"

	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// GraphMsg is a message between graph neighbours in the round engine.
type GraphMsg struct {
	From, To topology.NodeID
	Payload  wire.Payload
}

// RoundHandler is a node program for the synchronous round engine. Step is
// called once per node per round with the messages delivered this round and
// returns the messages to send (delivered next round). Step for different
// nodes may run concurrently; it must touch only the given node's state.
type RoundHandler interface {
	// Step processes one round at node n. Returning messages to non-adjacent
	// nodes is a protocol bug and aborts the run.
	Step(n *Node, round int, inbox []GraphMsg) []GraphMsg
}

// RoundHandlerFunc adapts a function to the RoundHandler interface.
type RoundHandlerFunc func(n *Node, round int, inbox []GraphMsg) []GraphMsg

// Step implements RoundHandler.
func (f RoundHandlerFunc) Step(n *Node, round int, inbox []GraphMsg) []GraphMsg {
	return f(n, round, inbox)
}

// RoundsResult reports a RunRounds execution.
type RoundsResult struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Messages is the total number of messages sent.
	Messages int64
}

// runScratch is the round engines' reusable per-network storage: inbox and
// outbox slots for RunRounds, heard/sent/active slots for RunRadioRounds.
// It is allocated on first use and reused across rounds and runs (lengths
// reset, capacity retained), so a warm round allocates nothing on the
// engine side. A network runs one round engine at a time, which is the
// existing single-run ownership contract.
type runScratch struct {
	inboxes  [][]GraphMsg
	outboxes [][]GraphMsg
	heard    [][]RadioMsg
	sent     []RadioMsg
	active   []bool
}

// roundScratch returns the network's scratch, allocated on first use.
func (nw *Network) roundScratch() *runScratch {
	if nw.scratch == nil {
		nw.scratch = &runScratch{}
	}
	return nw.scratch
}

// RunRounds drives handler for up to the given number of synchronous rounds
// over the network graph, charging every message to the meter. Round 0
// delivers an empty inbox to every node. The run stops early once a round
// after the first produces no messages (the network has quiesced).
//
// Node steps within a round execute in parallel across a worker pool; the
// engine is nevertheless deterministic because each node only uses its own
// RNG and delivery order within an inbox is sorted by sender.
//
// When an active fault plan is attached (nw.Faults), it is consulted at
// this boundary: crashed nodes neither step nor hear, messages over dead
// links or to crashed nodes vanish, and surviving deliveries pass the
// plan's per-message drop/dup decision. Only delivered copies are charged
// (a lost message never made it onto the air as far as the meter is
// concerned; a duplicate is a retransmission both endpoints pay for
// again) — the convention the spantree fault injection already used. A
// done nw.Ctx stops the run before its next round (see Network.Ctx).
func RunRounds(nw *Network, handler RoundHandler, rounds int) RoundsResult {
	n := nw.N()
	sc := nw.roundScratch()
	for len(sc.inboxes) < n {
		sc.inboxes = append(sc.inboxes, nil)
		sc.outboxes = append(sc.outboxes, nil)
	}
	inboxes, outboxes := sc.inboxes[:n], sc.outboxes[:n]
	for i := range inboxes {
		inboxes[i] = inboxes[i][:0]
		outboxes[i] = nil
	}
	var sent int64
	executed := 0

	plan := nw.Faults
	faulty := plan != nil && plan.Active()

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	for round := 0; round < rounds; round++ {
		nw.stop()
		executed = round + 1
		if faulty && plan.PhaseArmed() {
			// Phased faults strike at this round boundary: nodes crashed
			// mid-run stop stepping from this round on, and mid-dead links
			// drop every later delivery. Gossip-style protocols degrade
			// natively past the fire; no retry machinery applies here.
			plan.Tick()
		}
		runParallel(n, workers, func(i int) {
			if faulty && plan.Crashed(topology.NodeID(i)) {
				outboxes[i] = nil
				inboxes[i] = inboxes[i][:0]
				return
			}
			outboxes[i] = handler.Step(nw.Nodes[i], round, inboxes[i])
			inboxes[i] = inboxes[i][:0]
		})
		// Deliver sequentially, in deterministic order.
		var roundMsgs int64
		for i := 0; i < n; i++ {
			for _, msg := range outboxes[i] {
				if msg.From != topology.NodeID(i) {
					panic(fmt.Sprintf("netsim: node %d forged sender %d", i, msg.From))
				}
				if !adjacent(nw.Graph, msg.From, msg.To) {
					panic(fmt.Sprintf("netsim: node %d sent to non-neighbour %d", msg.From, msg.To))
				}
				copies := 1
				if faulty {
					if plan.Crashed(msg.To) || !plan.LinkAlive(msg.From, msg.To) {
						copies = 0
					} else {
						copies = plan.Deliveries(msg.From, msg.To)
					}
				}
				for c := 0; c < copies; c++ {
					nw.Meter.Charge(msg.From, msg.To, msg.Payload.Bits())
					inboxes[msg.To] = append(inboxes[msg.To], msg)
					roundMsgs++
				}
			}
			// Delivered messages were copied into inboxes, so the outbox
			// slice is dead: reclaim it as the node's outbox scratch for a
			// later Step (see Node.OutboxScratch) instead of dropping the
			// capacity on the floor.
			if outboxes[i] != nil {
				nw.Nodes[i].outbox = outboxes[i][:0]
				outboxes[i] = nil
			}
		}
		sent += roundMsgs
		if roundMsgs == 0 && round > 0 {
			break
		}
		// Sort each inbox by sender for deterministic handler input.
		for i := range inboxes {
			sortBySender(inboxes[i])
		}
	}
	return RoundsResult{Rounds: executed, Messages: sent}
}

// stop panics with the error of the run's Ctx once it is done.
func (nw *Network) stop() {
	if nw.Ctx != nil && nw.Ctx.Err() != nil {
		panic(nw.Ctx.Err())
	}
}

func adjacent(g *topology.Graph, u, v topology.NodeID) bool {
	nbrs := g.Adj[u]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nbrs[mid] == v:
			return true
		case nbrs[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

func sortBySender(msgs []GraphMsg) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0 && msgs[j].From < msgs[j-1].From; j-- {
			msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
		}
	}
}

// runParallel invokes fn(i) for i in [0,n) across the given worker count
// and waits for completion.
func runParallel(n, workers int, fn func(i int)) {
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
