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

// obsConvergecast records one convergecast: vc is nil for a boxed
// combiner.
func (e *FastEngine) obsConvergecast(sk *obs.Sink, vc VecCombiner) {
	sk.Sweeps.Add(1)
	name := "sweep.convergecast.generic"
	width := int64(0)
	if vc != nil {
		name = "sweep.convergecast.vec"
		width = int64(vc.VecWidth())
	}
	sk.Tracer.Emit(name, 0,
		obs.KV{K: "nodes", V: int64(len(e.view.Order))},
		obs.KV{K: "levels", V: e.levels()},
		obs.KV{K: "width", V: width})
}

// levels is the depth of the engine's view in levels.
func (e *FastEngine) levels() int64 { return int64(len(e.view.sched.bounds) - 1) }
