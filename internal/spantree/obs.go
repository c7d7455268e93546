package spantree

import (
	"sensoragg/internal/obs"
	"sensoragg/internal/wire"
)

// Observability hooks for the fast engine. Events are recorded at sweep
// granularity — one per broadcast and one per convergecast, carrying the
// level count and node count as attributes — never per node or edge, so
// an enabled sink's cost is bounded by the number of tree operations.
// Call sites guard with `if sk := obs.Active(); sk != nil`, keeping the
// disabled path to a single atomic load with zero allocations (the PR 3
// hot-path contract). The hooks never touch the Meter: bit figures here
// are payload sizes known to the sweep itself.

func (e *FastEngine) obsBroadcast(sk *obs.Sink, p wire.Payload) {
	sk.Broadcasts.Add(1)
	sk.Tracer.Emit("sweep.broadcast", 0,
		obs.KV{K: "bits", V: int64(p.Bits())},
		obs.KV{K: "nodes", V: int64(len(e.view.Order))},
		obs.KV{K: "levels", V: e.levels()})
}

func (e *FastEngine) obsConvergecast(sk *obs.Sink, c Combiner) {
	sk.Sweeps.Add(1)
	name := "sweep.convergecast.generic"
	width := int64(0)
	if vc, ok := c.(VecCombiner); ok {
		name = "sweep.convergecast.vec"
		width = int64(vc.VecWidth())
	}
	sk.Tracer.Emit(name, 0,
		obs.KV{K: "nodes", V: int64(len(e.view.Order))},
		obs.KV{K: "levels", V: e.levels()},
		obs.KV{K: "width", V: width})
}

// levels is the depth of the engine's view in levels, 0 for a view the
// sweep rejects.
func (e *FastEngine) levels() int64 {
	s, err := e.schedule()
	if err != nil {
		return 0
	}
	return int64(len(s.bounds) - 1)
}
