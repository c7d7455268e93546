// Package core implements the paper's algorithms: deterministic median and
// order statistics (Section 3, Fig. 1), the approximate median APX MEDIAN
// (Section 4, Fig. 2), and the polyloglog approximate median APX MEDIAN2
// (Section 4.2, Fig. 4), together with validators for the definitions they
// are proved against (Definitions 2.3 and 2.4).
//
// The algorithms are written against the Net interface — exactly the
// primitive-protocol abstraction of Section 2.2 ("the communication
// mechanism will be abstracted by the assumptions we make about the
// existence of protocols for primitive tasks"). Two implementations exist:
// agg.Net runs the primitives on the simulated network with exact bit
// accounting, and LocalNet (in this package) evaluates them directly over a
// slice for algorithm-level tests.
package core

import (
	"fmt"
	"math/bits"

	"sensoragg/internal/wire"
)

// Domain selects which per-item value a primitive protocol sees.
type Domain uint8

const (
	// Linear addresses the item's current (possibly rescaled) value x_i^(j).
	Linear Domain = iota + 1
	// LogDomain addresses floor(log2 x) of the current value — the x̂ values
	// of Fig. 4 (items with value 0 map to bucket 0 alongside value 1).
	LogDomain
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case Linear:
		return "linear"
	case LogDomain:
		return "log"
	default:
		return fmt.Sprintf("Domain(%d)", uint8(d))
	}
}

// Net is the root's view of the network, the primitive protocols of
// Section 2.2. All methods operate over the *active* items only; initially
// every item is active (APX MEDIAN2 deactivates items between stages).
// Implementations charge all communication to their own meters; core only
// issues calls.
type Net interface {
	// NumNodes returns the number of network nodes.
	NumNodes() int
	// MaxX returns the known upper bound X on item values (§2.1).
	MaxX() uint64
	// MinMax runs the MIN and MAX protocols (Fact 2.1) over active items in
	// domain d. ok is false when no items are active.
	MinMax(d Domain) (lo, hi uint64, ok bool)
	// Count runs the deterministic COUNTP protocol (§3.1) over active items
	// in domain d.
	Count(d Domain, pred wire.Pred) uint64
	// CountVec runs the batched COUNTP probe plane: one protocol round
	// answers every predicate in preds at once, appending the counts into
	// dst[:0] (pass a reused buffer to keep hot search loops
	// allocation-free). An empty probe set returns dst[:0] with no
	// communication. The k-ary selection search (Plane.Drive) is built on
	// it.
	CountVec(d Domain, preds []wire.Pred, dst []uint64) []uint64
	// ApxCountRep runs r independent α-counting instances (Definition 2.1,
	// Fact 2.2) over active items in domain d satisfying pred and returns
	// the r estimates — the body of subroutine REP COUNTP (Fig. 2).
	ApxCountRep(d Domain, pred wire.Pred, r int) []float64
	// ApxSigma returns σ, the relative standard-deviation bound of one
	// counting instance; ApxAlpha returns the bias bound α_c. The paper
	// requires α_c < σ/2 throughout Section 4.
	ApxSigma() float64
	ApxAlpha() float64
	// Zoom implements Fig. 4 lines 3.2–3.3: broadcast µ̂ to all nodes; each
	// active item x with 2^µ̂ ≤ x < 2^{µ̂+1} rescales to
	// 1 + (x−2^µ̂)·(X−1)/(2^µ̂−1) (integer floor; identity when µ̂ = 0,
	// whose interval {0, 1} has zero width); every other item becomes
	// passive.
	Zoom(muHat uint64)
	// Reset reactivates every item at its original value.
	Reset()
}

// RepCount averages r independent α-counting instances — subroutine
// REP COUNTP of Fig. 2. It is the only way core consumes ApxCountRep.
func RepCount(net Net, d Domain, pred wire.Pred, r int) float64 {
	if r < 1 {
		r = 1
	}
	ests := net.ApxCountRep(d, pred, r)
	var sum float64
	for _, e := range ests {
		sum += e
	}
	return sum / float64(len(ests))
}

// Log2Floor returns floor(log2(x)) for x >= 1, and 0 for x == 0 (values 0
// and 1 share bucket 0; see LogDomain).
func Log2Floor(x uint64) uint64 {
	if x <= 1 {
		return 0
	}
	return uint64(bits.Len64(x) - 1)
}
