package spantree

import (
	"fmt"
	"sync"

	"sensoragg/internal/bitio"
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

// channels returns the reusable per-node channel array, draining any value
// a failed previous operation left behind (after a decode error the root's
// payload is never consumed).
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

// Convergecast implements Ops: every partial crosses its edge through
// AppendPartial and Decode.
func (e *GoroutineEngine) Convergecast(c Combiner) (any, error) {
	root, err := e.wave(func(n *netsim.Node, kids []wire.Payload) (wire.Payload, error) {
		acc := c.Local(n)
		for j, pl := range kids {
			dec, err := c.Decode(pl)
			if err != nil {
				return wire.Empty, e.decodeErr(n, j, err)
			}
			acc = c.Merge(acc, dec)
		}
		w := bitio.NewWriter(64)
		c.AppendPartial(w, acc)
		return wire.Borrowed(w), nil
	})
	if err != nil {
		return nil, err
	}
	out, err := c.Decode(root)
	if err != nil {
		return nil, fmt.Errorf("spantree: decoding root partial: %w", err)
	}
	return out, nil
}

// ConvergecastVec implements Ops: every partial crosses its edge through
// AppendVec and DecodeVec — the codec round trip the fast engine's ring
// never makes.
func (e *GoroutineEngine) ConvergecastVec(vc VecCombiner) ([]uint64, error) {
	k := vc.VecWidth()
	if k <= 0 {
		return nil, fmt.Errorf("spantree: vector combiner width %d", k)
	}
	root, err := e.wave(func(n *netsim.Node, kids []wire.Payload) (wire.Payload, error) {
		acc, dec := make([]uint64, k), make([]uint64, k)
		vc.LocalVec(n, acc)
		for j, pl := range kids {
			if err := vc.DecodeVec(pl, dec); err != nil {
				return wire.Empty, e.decodeErr(n, j, err)
			}
			vc.MergeVec(acc, dec)
		}
		w := bitio.NewWriter(64)
		vc.AppendVec(w, acc)
		return wire.Borrowed(w), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]uint64, k)
	if err := vc.DecodeVec(root, out); err != nil {
		return nil, fmt.Errorf("spantree: decoding root partial: %w", err)
	}
	return out, nil
}

// wave runs one convergecast wave. Each node goroutine receives one payload
// from every child channel, charging the edge, then step merges them in
// child order into the node's encoded partial, which goes to the parent.
// The root's payload is returned: its "send" goes to the user entity, not
// across a link, so it is not charged.
func (e *GoroutineEngine) wave(step func(n *netsim.Node, kids []wire.Payload) (wire.Payload, error)) (wire.Payload, error) {
	tree := e.nw.Tree
	n := e.nw.N()
	up := e.channels()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(u topology.NodeID) {
			defer wg.Done()
			kids := make([]wire.Payload, len(tree.Children[u]))
			for j, child := range tree.Children[u] {
				kids[j] = <-up[child]
				e.nw.Meter.Charge(child, u, kids[j].Bits())
			}
			pl, err := step(e.nw.Nodes[u], kids)
			if err != nil {
				errs <- err
			}
			up[u] <- pl
		}(topology.NodeID(i))
	}
	wg.Wait()
	select {
	case err := <-errs:
		return wire.Empty, err
	default:
	}
	return <-up[tree.Root], nil
}

// decodeErr reports a child partial of node n that failed to decode.
func (e *GoroutineEngine) decodeErr(n *netsim.Node, child int, err error) error {
	return fmt.Errorf("spantree: decoding partial from node %d: %w", e.nw.Tree.Children[n.ID][child], err)
}
