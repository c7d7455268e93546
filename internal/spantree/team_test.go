package spantree

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// liveHelpers returns how many helpers are alive.
func liveHelpers() int {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	return helpers.live
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test, so the team has a
// helper to lend.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestHelpersQuiesce: team operations start helpers, and a process that
// stops running them holds none once the helpers' linger has passed.
func TestHelpersQuiesce(t *testing.T) {
	atLeastTwoProcs(t)
	e := NewFast(testNetwork(t, topology.Grid(32, 32)))
	e.SetWorkers(4)
	for range 50 {
		e.Broadcast(wire.Payload{}, nil)
		if _, err := e.Convergecast(idCombiner{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveHelpers(); n == 0 || n > runtime.GOMAXPROCS(0)-1 {
		t.Fatalf("%d helpers alive after team operations, want 1..GOMAXPROCS-1", n)
	}
	for deadline := time.Now().Add(helperLinger + 3*time.Second); liveHelpers() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive %v after the last team operation", liveHelpers(), helperLinger+3*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// panicky is idCombiner that panics at one node.
type panicky struct {
	idCombiner
	at topology.NodeID
}

func (p panicky) Local(n *netsim.Node) any {
	if n.ID == p.at {
		panic("panicky: node reached")
	}
	return p.idCombiner.Local(n)
}

// TestTeamPanicReachesCaller: a share that panics — on a helper or on the
// caller — re-panics on the caller after the join, and the team runs the
// next operation as if nothing happened.
func TestTeamPanicReachesCaller(t *testing.T) {
	atLeastTwoProcs(t)
	nw := testNetwork(t, topology.Grid(16, 16))
	e := NewFast(nw)
	e.SetWorkers(3)
	want, err := e.Convergecast(idCombiner{})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []topology.NodeID{0, 17, 255} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "node reached") {
					t.Fatalf("panic at node %d: recovered %v", at, r)
				}
			}()
			e.Convergecast(panicky{at: at})
		}()
		if got, err := e.Convergecast(idCombiner{}); err != nil || got != want {
			t.Fatalf("after a panic at node %d: %v, %v; want %v", at, got, err, want)
		}
	}
}
