package netsim

import (
	"runtime"

	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// Radio rounds model the physical-layer broadcast of sensor radios: one
// transmission is sent once and heard by *every* neighbour. The per-node
// accounting follows the paper's measure: the transmitter pays the payload
// once, each hearer pays it once on receive. This is the model in which
// single-hop ("all hear all", Singh–Prasanna [14]) algorithms make sense —
// a link-charged unicast model would misprice them by a factor of N.

// RadioMsg is a transmission in a radio round; it has no addressee.
type RadioMsg struct {
	From    topology.NodeID
	Payload wire.Payload
}

// RadioHandler is a node program for the radio round engine. Step receives
// everything the node heard this round (its neighbours' previous-round
// transmissions, sorted by sender) and returns the node's own transmission
// for this round (nil payload = stay silent).
type RadioHandler interface {
	Step(n *Node, round int, heard []RadioMsg) (wire.Payload, bool)
}

// RadioHandlerFunc adapts a function to RadioHandler.
type RadioHandlerFunc func(n *Node, round int, heard []RadioMsg) (wire.Payload, bool)

// Step implements RadioHandler.
func (f RadioHandlerFunc) Step(n *Node, round int, heard []RadioMsg) (wire.Payload, bool) {
	return f(n, round, heard)
}

// RunRadioRounds drives handler for up to the given number of rounds,
// charging each transmission once to the sender and once to every hearer.
// It stops early when a round after the first is silent. Returns rounds
// executed and transmissions made.
//
// An active fault plan (nw.Faults) is consulted at this boundary: crashed
// nodes neither step, transmit, nor hear; a live transmitter still pays its
// transmission once (the radio does not know who is listening), while each
// hearer is subject to the plan's link failures and per-message drop/dup —
// only copies actually heard are charged on the receive side. A done
// nw.Ctx stops the run before its next round.
func RunRadioRounds(nw *Network, handler RadioHandler, rounds int) RoundsResult {
	n := nw.N()
	sc := nw.roundScratch()
	for len(sc.heard) < n {
		sc.heard = append(sc.heard, nil)
		sc.sent = append(sc.sent, RadioMsg{})
		sc.active = append(sc.active, false)
	}
	heard, sent, active := sc.heard[:n], sc.sent[:n], sc.active[:n]
	for i := range heard {
		heard[i] = heard[i][:0]
		active[i] = false
	}
	var transmissions int64
	executed := 0

	plan := nw.Faults
	faulty := plan != nil && plan.Active()

	for round := 0; round < rounds; round++ {
		nw.stop()
		executed = round + 1
		roundTx := int64(0)
		runParallel(n, workersFor(n), func(i int) {
			if faulty && plan.Crashed(topology.NodeID(i)) {
				heard[i] = heard[i][:0]
				active[i] = false
				return
			}
			pl, ok := handler.Step(nw.Nodes[i], round, heard[i])
			heard[i] = heard[i][:0]
			active[i] = ok
			if ok {
				sent[i] = RadioMsg{From: topology.NodeID(i), Payload: pl}
			}
		})
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			roundTx++
			msg := sent[i]
			bits := msg.Payload.Bits()
			// Transmitter pays once.
			nw.Meter.ChargeTx(topology.NodeID(i), bits)
			// Every neighbour hears it.
			for _, nbr := range nw.Graph.Adj[i] {
				copies := 1
				if faulty {
					if plan.Crashed(nbr) || !plan.LinkAlive(topology.NodeID(i), nbr) {
						continue
					}
					copies = plan.Deliveries(topology.NodeID(i), nbr)
				}
				for c := 0; c < copies; c++ {
					nw.Meter.ChargeRx(nbr, bits)
					heard[nbr] = append(heard[nbr], msg)
				}
			}
		}
		transmissions += roundTx
		if roundTx == 0 && round > 0 {
			break
		}
		for i := range heard {
			sortRadioBySender(heard[i])
		}
	}
	return RoundsResult{Rounds: executed, Messages: transmissions}
}

func sortRadioBySender(msgs []RadioMsg) {
	for i := 1; i < len(msgs); i++ {
		for j := i; j > 0 && msgs[j].From < msgs[j-1].From; j-- {
			msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
		}
	}
}

func workersFor(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
