package distinct

import (
	"fmt"

	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// This file realizes the Theorem 5.1 reduction concretely: Two-Party Set
// Disjointness (2SD) solved through a COUNT DISTINCT protocol. Player A's
// set occupies the left n nodes of a 2n-line, player B's the right n nodes
// — the paper's "only one input item per node" mapping. Everything the
// protocol learns about B's side must cross the middle edge, so the bits on
// that edge are exactly the 2SD communication, and the Ω(n) lower bound for
// 2SD forces any exact protocol to push Ω(n) bits across it.

// DisjointnessRun reports one reduction execution.
type DisjointnessRun struct {
	// Disjoint is the ground truth of the instance.
	Disjoint bool
	// Decision is the protocol's answer: distinct == |X_A| + |X_B|.
	Decision bool
	// CutBits is the communication that crossed the middle edge.
	CutBits int64
	// Distinct is the protocol's distinct count (exact or estimated).
	Distinct float64
}

// DisjointnessHarness runs paired 2SD instances through a COUNT DISTINCT
// protocol and reports decisions and cut communication.
type DisjointnessHarness struct {
	// SetSize is n = |X_A| = |X_B|.
	SetSize int
	// SketchP, if >= 0, uses the approximate protocol with 2^SketchP
	// registers; -1 selects the exact protocol.
	SketchP int
	// Seed drives instance generation and sketch hashing.
	Seed uint64
	// MultiItem selects the theorem's other player-to-node mapping: when a
	// node may hold many items, player A simulates the root and player B a
	// single other node, on a 2-node line. The default (false) is the
	// one-item-per-node mapping on a 2n-node line.
	MultiItem bool
}

// Run executes the reduction on one instance. In the language of the
// Theorem 5.1 proof, step (1) — exchanging |X_A| and |X_B| — is free here
// because both are n by construction; step (2) runs the COUNT DISTINCT
// protocol P on the line; step (3) outputs YES iff the count equals 2n.
func (h DisjointnessHarness) Run(disjoint bool) (DisjointnessRun, error) {
	n := h.SetSize
	if n < 2 {
		return DisjointnessRun{}, fmt.Errorf("distinct: set size %d too small", n)
	}
	xa, xb := workload.DisjointnessInstance(n, disjoint, h.Seed)
	maxX := uint64(2*n - 1)

	var nw *netsim.Network
	// The cut is the line's edge between nodes cut-1 and cut: by default
	// the unique edge between A's simulation (nodes 0..n-1) and B's (nodes
	// n..2n-1).
	cut := n
	if h.MultiItem {
		// Player A is the root holding all of X_A; player B is one node
		// holding all of X_B. The single edge is the cut.
		g := topology.Line(2)
		nw = netsim.NewMulti(g, [][]uint64{xa, xb}, maxX, netsim.WithSeed(h.Seed))
		cut = 1
	} else {
		values := make([]uint64, 0, 2*n)
		values = append(values, xa...)
		values = append(values, xb...)
		g := topology.Line(2 * n)
		nw = netsim.New(g, values, maxX, netsim.WithSeed(h.Seed))
	}
	ops := spantree.NewFast(nw)

	var distinct float64
	if h.SketchP < 0 {
		res, err := Exact(ops)
		if err != nil {
			return DisjointnessRun{}, err
		}
		distinct = float64(res.Distinct)
	} else {
		res, err := Approximate(ops, h.SketchP, loglog.EstHLL, h.Seed)
		if err != nil {
			return DisjointnessRun{}, err
		}
		distinct = res.Estimate
	}
	return DisjointnessRun{
		Disjoint: disjoint,
		Decision: decide2SD(distinct, n),
		CutBits:  lineCut(nw.Meter, cut),
		Distinct: distinct,
	}, nil
}

// lineCut returns the bits that crossed the edge between nodes c-1 and c of
// a line, both directions, read off the per-node counters. Every message
// crosses one edge and charges its sender and its receiver the same bits,
// so a node's sent+received bits are the traffic on its edges: walking in
// from the far end, node k's total less the edge beyond it leaves the edge
// before it.
func lineCut(m *netsim.Meter, c int) int64 {
	var edge int64 // the traffic on the edge beyond node k; none beyond the last
	for k := m.N() - 1; k >= c; k-- {
		edge = m.PerNode(topology.NodeID(k)) - edge
	}
	return edge
}

// decide2SD outputs YES iff the reported count equals |X_A|+|X_B| = 2n —
// for estimates, iff the nearest integer is 2n, the best a counting oracle
// can do when the gap is a single element.
func decide2SD(distinct float64, n int) bool {
	return int64(distinct+0.5) >= int64(2*n)
}

// Accuracy runs `trials` paired instances (one disjoint, one overlapping
// per trial) and returns the fraction decided correctly plus the mean cut
// bits.
func (h DisjointnessHarness) Accuracy(trials int) (accuracy float64, meanCutBits float64, err error) {
	correct, total := 0, 0
	var cut int64
	for trial := 0; trial < trials; trial++ {
		inst := h
		inst.Seed = h.Seed + uint64(trial)*7919
		for _, disjoint := range []bool{true, false} {
			run, rerr := inst.Run(disjoint)
			if rerr != nil {
				return 0, 0, rerr
			}
			if run.Decision == run.Disjoint {
				correct++
			}
			cut += run.CutBits
			total++
		}
	}
	return float64(correct) / float64(total), float64(cut) / float64(total), nil
}
