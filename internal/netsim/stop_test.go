package netsim

import (
	"context"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// TestRoundsStopInPlace: a run network's Ctx, cancelled during round 2,
// stops RunRounds and RunRadioRounds before round 3 with a panic carrying
// the context's error, charged exactly what a 3-round run is; a Ctx done
// before the run stops it before round 0, with nothing charged; a Ctx that
// is never done charges what no Ctx does; and a pooled fork comes back
// without one.
func TestRoundsStopInPlace(t *testing.T) {
	g := topology.Grid(4, 4)
	var w bitio.Writer
	w.WriteBit(1)
	one := wire.FromWriter(&w)
	engines := map[string]func(nw *Network, rounds int, step func(n *Node, round int)){
		"RunRounds": func(nw *Network, rounds int, step func(*Node, int)) {
			RunRounds(nw, RoundHandlerFunc(func(n *Node, round int, _ []GraphMsg) []GraphMsg {
				step(n, round)
				return append(n.OutboxScratch(), GraphMsg{From: n.ID, To: g.Adj[n.ID][0], Payload: one})
			}), rounds)
		},
		"RunRadioRounds": func(nw *Network, rounds int, step func(*Node, int)) {
			RunRadioRounds(nw, RadioHandlerFunc(func(n *Node, round int, _ []RadioMsg) (wire.Payload, bool) {
				step(n, round)
				return one, true
			}), rounds)
		},
	}
	for name, run := range engines {
		// charged runs the engine for rounds rounds under ctx, calling
		// cancel at node 0's step in round at, and returns the bits it
		// charged and what it panicked with.
		charged := func(ctx context.Context, cancel func(), rounds, at int) (bits int64, stopped any) {
			nw := New(g, values(g.N()), 100)
			nw.Ctx = ctx
			defer func() { stopped, bits = recover(), nw.Meter.TotalBits() }()
			run(nw, rounds, func(n *Node, round int) {
				if n.ID == 0 && round == at {
					cancel()
				}
			})
			return
		}
		none := func() {}
		full, stopped := charged(nil, none, 6, -1)
		if stopped != nil || full == 0 {
			t.Fatalf("%s without a Ctx: %d bits, panicked with %v", name, full, stopped)
		}
		live, cancelLive := context.WithCancel(context.Background())
		if bits, stopped := charged(live, none, 6, -1); bits != full || stopped != nil {
			t.Errorf("%s under a Ctx never done: %d bits, panicked with %v; want %d and none", name, bits, stopped, full)
		}
		cancelLive()

		three, _ := charged(nil, none, 3, -1)
		ctx, cancel := context.WithCancel(context.Background())
		if bits, stopped := charged(ctx, cancel, 6, 2); bits != three || stopped != context.Canceled {
			t.Errorf("%s cancelled in round 2: %d bits, panicked with %v; want a 3-round run's %d and %v", name, bits, stopped, three, context.Canceled)
		}
		if bits, stopped := charged(ctx, none, 6, -1); bits != 0 || stopped != context.Canceled {
			t.Errorf("%s under a Ctx done before it: %d bits, panicked with %v; want 0 and %v", name, bits, stopped, context.Canceled)
		}
	}

	pool := NewForkPool(New(g, values(g.N()), 100))
	nw := pool.Get(1)
	nw.Ctx = context.Background()
	pool.Put(nw)
	if again := pool.Get(2); again != nw || again.Ctx != nil {
		t.Errorf("a pooled fork came back with Ctx %v", again.Ctx)
	}
}
