package spantree

import (
	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
)

// FoldSketches runs len(out) LogLog sketch convergecasts of m = 2^p
// registers over ops' view — the APX COUNT instances of Fact 2.2 and the
// approximate DISTINCT of §5 — and stores instance i's root estimate under
// est in out[i]. hasher(i) is instance i's hash function; keys adds node
// nd's keys to sk under it.
//
// Max-merge is idempotent, so merging the sketches up the tree equals
// folding once every node whose partial reaches the root: the fold builds
// the root's sketch directly, with no per-edge encoding, and prices every
// edge at m·RegisterBits, what a sketch encodes to whatever it holds.
// Under a drop/dup plan each instance draws one Deliveries per tree edge,
// charges every delivery — a duplicate twice, a drop not at all — and
// folds only the nodes whose whole path to the root delivered, which is
// what a per-edge convergecast of the encoded sketches charges and merges.
// Without message faults every edge delivers once per instance, and one
// pass charges all the instances.
//
// The fold applies no Byzantine corruption (hashed keys give a
// value-corrupting liar nothing to steer), ticks no phased-fault clock and
// emits no obs event: sketch protocols run under unphased plans only.
func FoldSketches(ops Ops, p int, est loglog.Estimator, out []float64,
	hasher func(i int) hashing.Hasher, keys func(sk *loglog.Sketch, h hashing.Hasher, nd *netsim.Node)) {
	nw := ops.Network()
	view := viewOf(ops)
	bits := int64(1<<p) * loglog.RegisterBits
	plan := nw.Faults
	// reached[u] reports that every edge on u's path to the root delivered
	// the current instance; nil when every edge delivers.
	var reached []bool
	if plan != nil && plan.Spec().MessageLevel() {
		reached = make([]bool, nw.N())
		reached[view.Root] = true
	} else {
		r := int64(len(out))
		for _, u := range view.Order {
			if u != view.Root {
				nw.Meter.ChargeEdgeSeq(u, view.Parent[u], r*bits, r)
			}
		}
	}
	sk := loglog.New(p) // one register array, reset per instance
	for i := range out {
		sk.Reset()
		h := hasher(i)
		for _, u := range view.Order {
			if reached != nil && u != view.Root {
				parent := view.Parent[u]
				d := int64(plan.Deliveries(u, parent))
				if d > 0 {
					nw.Meter.ChargeEdgeSeq(u, parent, d*bits, d)
				}
				if reached[u] = d > 0 && reached[parent]; !reached[u] {
					continue
				}
			}
			keys(sk, h, nw.Nodes[u])
		}
		out[i] = loglog.EstimateWith(sk, est)
	}
}

// viewOf returns the tree view ops sweeps: a fast engine's own — the full
// tree, a healed one or a sector — or else the network's tree.
func viewOf(ops Ops) *TreeView {
	if e, ok := ops.(interface{ View() *TreeView }); ok {
		return e.View()
	}
	return FullView(ops.Network().Tree)
}
