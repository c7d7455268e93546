package spantree

import (
	"fmt"
	"sync"

	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// GoroutineEngine runs every node as its own goroutine, with partials
// flowing through channels along tree edges. Each operation spawns the node
// goroutines, waits for the wave to complete, and tears them down; the
// dataflow through the channels is the only synchronization, mirroring how
// a convergecast wave propagates through a real network.
//
// It is the codec round-trip reference of the tests: every partial
// crosses its edge as an encoded payload — which the fast engine never
// builds for a vector combiner — and the agg, baseline and spantree
// cross-engine tests assert both engines produce identical results and
// meters. Nothing in the query engine or a CLI selects it. The per-node
// channel array is allocated once and reused across operations, so
// repeated queries don't rebuild it; an engine therefore runs one
// operation at a time.
type GoroutineEngine struct {
	nw    *netsim.Network
	chans []chan wire.Payload
}

var _ Ops = (*GoroutineEngine)(nil)

// NewGoroutine returns a goroutine engine over nw.
func NewGoroutine(nw *netsim.Network) *GoroutineEngine {
	return &GoroutineEngine{nw: nw}
}

// Network returns the underlying network.
func (e *GoroutineEngine) Network() *netsim.Network { return e.nw }

// Name implements Ops.
func (e *GoroutineEngine) Name() string { return "goroutine" }

// channels returns the reusable per-node channel array, draining any value
// a failed previous operation left behind (on a decode error a parent can
// return without consuming every child's send).
func (e *GoroutineEngine) channels() []chan wire.Payload {
	n := e.nw.N()
	for len(e.chans) < n {
		// One buffered slot per uber-go guidance: the receiver may not have
		// reached its receive yet; buffering decouples the send.
		e.chans = append(e.chans, make(chan wire.Payload, 1))
	}
	chans := e.chans[:n]
	for _, ch := range chans {
		select {
		case <-ch:
		default:
		}
	}
	return chans
}

// Broadcast implements Ops. Each node goroutine blocks on its parent
// channel, applies the payload, then forwards to its children. The sender
// performs the meter charge so each counter cell has a single writer per
// phase; Meter.Charge is atomic regardless.
func (e *GoroutineEngine) Broadcast(p wire.Payload, apply Applier) {
	tree := e.nw.Tree
	n := e.nw.N()
	down := e.channels()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(u topology.NodeID) {
			defer wg.Done()
			pl := <-down[u]
			if apply != nil {
				apply(e.nw.Nodes[u], pl)
			}
			for _, c := range tree.Children[u] {
				e.nw.Meter.Charge(u, c, pl.Bits())
				down[c] <- pl
			}
		}(topology.NodeID(i))
	}
	down[tree.Root] <- p // root "receives" the query from the user entity free of charge
	wg.Wait()
}

// Convergecast implements Ops. Each node goroutine waits for one payload
// from every child channel, merges, and sends the encoded accumulator to
// its parent.
func (e *GoroutineEngine) Convergecast(c Combiner) (any, error) {
	tree := e.nw.Tree
	n := e.nw.N()
	up := e.channels()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(u topology.NodeID) {
			defer wg.Done()
			acc := c.Local(e.nw.Nodes[u])
			for _, child := range tree.Children[u] {
				pl := <-up[child]
				e.nw.Meter.Charge(child, u, pl.Bits())
				dec, err := c.Decode(pl)
				if err != nil {
					errs <- fmt.Errorf("spantree: decoding partial from node %d: %w", child, err)
					up[u] <- wire.Empty // unblock parent
					return
				}
				acc = c.Merge(acc, dec)
			}
			up[u] <- c.Encode(acc)
		}(topology.NodeID(i))
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	// The root's "send" goes to the user entity, not across a link: decode
	// it back without charging.
	rootPayload := <-up[tree.Root]
	out, err := c.Decode(rootPayload)
	if err != nil {
		return nil, fmt.Errorf("spantree: decoding root partial: %w", err)
	}
	return out, nil
}
