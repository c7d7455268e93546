package agg

import (
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func muxNet(t *testing.T, n int, seed uint64) *Net {
	t.Helper()
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	g := topology.Grid(side, side)
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Uniform, g.N(), maxX, seed)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(seed))
	return NewNet(spantree.NewFast(nw))
}

// TestCountVecSumMatchesSeparate: the widened sweep must report exactly
// the counts of a plain CountVec and exactly the sum of a separate SUM
// protocol — for fewer total bits than running the two sweeps apart.
func TestCountVecSumMatchesSeparate(t *testing.T) {
	net := muxNet(t, 256, 5)
	nw := net.Network()
	preds := []wire.Pred{wire.Less(100), wire.Less(400), wire.Less(800), wire.True()}

	before := nw.Meter.Snapshot()
	counts, sum := net.CountVecSum(core.Linear, preds, nil)
	fusedBits := nw.Meter.Since(before).TotalBits

	before = nw.Meter.Snapshot()
	wantCounts := net.CountVec(core.Linear, preds, nil)
	wantSum := net.Sum(core.Linear, wire.True())
	separateBits := nw.Meter.Since(before).TotalBits

	if len(counts) != len(wantCounts) {
		t.Fatalf("CountVecSum returned %d counts, want %d", len(counts), len(wantCounts))
	}
	for i := range counts {
		if counts[i] != wantCounts[i] {
			t.Errorf("slot %d: count %d != CountVec's %d", i, counts[i], wantCounts[i])
		}
	}
	if sum != wantSum {
		t.Errorf("sum rider %d != Sum protocol %d", sum, wantSum)
	}
	if fusedBits >= separateBits {
		t.Errorf("widened sweep cost %d bits vs %d separate — the rider must be cheaper than a sweep", fusedBits, separateBits)
	}

	// Empty probe set: no communication.
	before = nw.Meter.Snapshot()
	if c, s := net.CountVecSum(core.Linear, nil, nil); len(c) != 0 || s != 0 {
		t.Errorf("empty probe set returned %v, %d", c, s)
	}
	if d := nw.Meter.Since(before); d.TotalBits != 0 {
		t.Errorf("empty probe set cost %d bits", d.TotalBits)
	}
}

// TestSweepMuxDemux: the mux must merge two members' overlapping proposals
// into one deduplicated chain, run one sweep, and hand each member back
// exactly the counts individual COUNT protocols report for its own
// thresholds — the demux contract of the fusion plane.
func TestSweepMuxDemux(t *testing.T) {
	net := muxNet(t, 144, 3)
	nw := net.Network()
	memberA := []uint64{50, 200, 350}
	memberB := []uint64{200, 120, 500} // unordered, overlaps A at 200

	mux := NewSweepMux(net)
	mux.Begin()
	mux.Add(memberA)
	mux.Add(memberB)
	lo, hi, ok := net.MinMax(core.Linear)
	if !ok {
		t.Fatal("empty network")
	}
	_ = lo
	mux.AddTop(hi)
	mux.AddSum()

	before := nw.Meter.Snapshot()
	mux.Sweep(core.Linear)
	sweepMsgs := nw.Meter.Since(before).Messages

	if got := len(mux.Thresholds()); got != 6 {
		t.Fatalf("merged chain has %d thresholds, want 6 (5 distinct + top)", got)
	}
	for _, member := range [][]uint64{memberA, memberB} {
		for _, thr := range member {
			c, ok := mux.CountAt(thr)
			if !ok {
				t.Fatalf("threshold %d was not probed in the sweep", thr)
			}
			if want := net.Count(core.Linear, wire.Less(thr)); c != want {
				t.Errorf("demuxed count(<%d) = %d, want %d", thr, c, want)
			}
		}
	}
	if topN, ok := mux.Top(); !ok || topN != net.Count(core.Linear, wire.True()) {
		t.Errorf("top count %d (ok=%v), want COUNT(TRUE)=%d", topN, ok, net.Count(core.Linear, wire.True()))
	}
	if sum, ok := mux.Sum(); !ok || sum != net.Sum(core.Linear, wire.True()) {
		t.Errorf("sum rider %d (ok=%v), want SUM=%d", sum, ok, net.Sum(core.Linear, wire.True()))
	}
	if _, ok := mux.CountAt(999999); ok {
		t.Error("demuxing an unprobed threshold must fail")
	}
	if mux.Sweeps != 1 {
		t.Errorf("mux ran %d sweeps, want 1", mux.Sweeps)
	}

	// One mux sweep is one broadcast–convergecast round: the same message
	// count as a single-probe COUNT, not one round per member.
	before = nw.Meter.Snapshot()
	net.Count(core.Linear, wire.Less(100))
	if oneMsgs := nw.Meter.Since(before).Messages; sweepMsgs != oneMsgs {
		t.Errorf("mux sweep used %d messages, single COUNT uses %d — must be one round", sweepMsgs, oneMsgs)
	}
}
