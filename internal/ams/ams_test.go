package ams

import (
	"math"
	"math/rand/v2"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func TestTrueF2(t *testing.T) {
	// {1,1,1,2,2,3}: f = (3,2,1) → F2 = 9+4+1 = 14.
	if got := TrueF2([]uint64{1, 1, 1, 2, 2, 3}); got != 14 {
		t.Errorf("TrueF2 = %g, want 14", got)
	}
	if got := TrueF2(nil); got != 0 {
		t.Errorf("TrueF2(nil) = %g", got)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	values := make([]uint64, 20_000)
	for i := range values {
		values[i] = rng.Uint64N(500) // heavy repetition: F2 ≫ N
	}
	truth := TrueF2(values)
	var errSum float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s := New(5, 64, uint64(trial)+1)
		for _, v := range values {
			s.Add(v)
		}
		errSum += math.Abs(s.EstimateF2()-truth) / truth
	}
	// Relative std dev ≈ √(2/64) ≈ 0.18 per row-mean; median-of-5 tightens.
	if mean := errSum / trials; mean > 0.25 {
		t.Errorf("mean relative error %.3f too large", mean)
	}
}

func TestSkewSensitivity(t *testing.T) {
	// F2 distinguishes flat from skewed multisets of equal size.
	flat := make([]uint64, 4096)
	for i := range flat {
		flat[i] = uint64(i)
	}
	skewed := make([]uint64, 4096)
	for i := range skewed {
		skewed[i] = uint64(i % 4)
	}
	s1 := New(5, 64, 9)
	s2 := New(5, 64, 9)
	for i := range flat {
		s1.Add(flat[i])
		s2.Add(skewed[i])
	}
	if !(s2.EstimateF2() > 10*s1.EstimateF2()) {
		t.Errorf("skewed F2 %.0f not ≫ flat F2 %.0f", s2.EstimateF2(), s1.EstimateF2())
	}
}

func TestMergeEqualsBulk(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	whole := New(3, 16, 7)
	a := New(3, 16, 7)
	b := New(3, 16, 7)
	for i := 0; i < 2000; i++ {
		v := rng.Uint64N(100)
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	for i := range whole.counters {
		if a.counters[i] != whole.counters[i] {
			t.Fatalf("counter %d: merged %d != bulk %d", i, a.counters[i], whole.counters[i])
		}
	}
}

func TestMergeIncompatiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("incompatible merge should panic")
		}
	}()
	New(2, 8, 1).Merge(New(2, 8, 2))
}

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 12345, -12345, 1 << 30, -(1 << 30)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip: %d -> %d", v, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := New(2, 8, 3)
	for i := uint64(0); i < 500; i++ {
		s.Add(i % 17)
	}
	c := combiner{rows: 2, cols: 8, seed: 3}
	w := bitio.NewWriter(64)
	c.AppendPartial(w, s)
	got, err := c.Decode(wire.FromWriter(w))
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(*Sketch)
	for i := range s.counters {
		if gs.counters[i] != s.counters[i] {
			t.Fatalf("counter %d: %d -> %d", i, s.counters[i], gs.counters[i])
		}
	}
}

func TestF2Protocol(t *testing.T) {
	g := topology.Grid(16, 16)
	values := workload.Generate(workload.FewDistinct, g.N(), 1<<12, 5)
	truth := TrueF2(values)
	nw := netsim.New(g, values, 1<<12)
	res, err := F2Protocol(spantree.NewFast(nw), 5, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth)/truth > 0.4 {
		t.Errorf("protocol F2 %.0f vs truth %.0f", res.Estimate, truth)
	}
	if res.Comm.TotalBits == 0 {
		t.Error("no communication charged")
	}
}

func TestProtocolCostFlatInN(t *testing.T) {
	cost := func(n int) int64 {
		g := topology.Line(n)
		values := workload.Generate(workload.Uniform, n, 1<<12, 3)
		nw := netsim.New(g, values, 1<<12)
		res, err := F2Protocol(spantree.NewFast(nw), 3, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Comm.MaxPerNode
	}
	if c1, c2 := cost(128), cost(1024); c1 != c2 {
		t.Errorf("fixed-size sketch cost changed with N: %d vs %d", c1, c2)
	}
}
