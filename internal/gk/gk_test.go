package gk

import (
	randv1 "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

func TestFromValuesExact(t *testing.T) {
	s := FromValues([]uint64{5, 1, 3, 3, 9})
	if s.N != 5 || len(s.Entries) != 5 {
		t.Fatalf("N=%d entries=%d", s.N, len(s.Entries))
	}
	if s.MaxGap() != 1 {
		t.Errorf("exact summary MaxGap = %d, want 1", s.MaxGap())
	}
	v, err := s.Median()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("median = %d, want 3", v)
	}
}

// TestMergeExactIsExact: merging exact summaries must give the exact
// summary of the union (rank intervals stay tight).
func TestMergeExactIsExact(t *testing.T) {
	check := func(a, b []uint16) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		av := make([]uint64, len(a))
		bv := make([]uint64, len(b))
		all := make([]uint64, 0, len(a)+len(b))
		for i, v := range a {
			av[i] = uint64(v)
			all = append(all, uint64(v))
		}
		for i, v := range b {
			bv[i] = uint64(v)
			all = append(all, uint64(v))
		}
		m := Merge(FromValues(av), FromValues(bv))
		want := FromValues(all)
		if m.N != want.N || len(m.Entries) != len(want.Entries) {
			return false
		}
		for i := range m.Entries {
			if m.Entries[i] != want.Entries[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: randv1.New(randv1.NewSource(2))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsBoundsValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	values := make([]uint64, 500)
	for i := range values {
		values[i] = rng.Uint64N(1 << 16)
	}
	s := FromValues(values)
	s.Prune(16)
	if len(s.Entries) > 16 {
		t.Fatalf("prune left %d entries", len(s.Entries))
	}
	// Gap after pruning to k entries ≈ N/(k−1).
	if gap := s.MaxGap(); gap > 2*500/15 {
		t.Errorf("MaxGap %d too large after prune", gap)
	}
	// Intervals must still be consistent with the true ranks.
	sorted := core.SortedCopy(values)
	for _, e := range s.Entries {
		lo := uint64(core.CountLess(sorted, e.V)) + 1
		hi := uint64(core.CountLess(sorted, e.V+1))
		if e.RMin > hi || e.RMax < lo {
			t.Errorf("entry %d: interval [%d,%d] excludes true ranks [%d,%d]", e.V, e.RMin, e.RMax, lo, hi)
		}
	}
}

func TestQueryWithinGap(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	values := make([]uint64, 1000)
	for i := range values {
		values[i] = rng.Uint64N(1 << 14)
	}
	s := FromValues(values)
	s.Prune(32)
	sorted := core.SortedCopy(values)
	for _, rank := range []uint64{1, 100, 500, 900, 1000} {
		v, err := s.Query(rank)
		if err != nil {
			t.Fatal(err)
		}
		lo := uint64(core.CountLess(sorted, v)) + 1
		hi := uint64(core.CountLess(sorted, v+1))
		gap := s.MaxGap()
		if rank+gap < lo || rank > hi+gap {
			t.Errorf("rank %d: value %d has true ranks [%d,%d], gap %d", rank, v, lo, hi, gap)
		}
	}
}

func TestStreamErrorBound(t *testing.T) {
	const (
		n   = 20_000
		eps = 0.01
	)
	rng := rand.New(rand.NewPCG(5, 0))
	st := NewStream(eps)
	values := make([]uint64, n)
	for i := range values {
		values[i] = rng.Uint64N(1 << 20)
		st.Insert(values[i])
	}
	sorted := core.SortedCopy(values)
	for _, phi := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		v, err := st.Quantile(phi)
		if err != nil {
			t.Fatal(err)
		}
		lo := float64(core.CountLess(sorted, v))
		hi := float64(core.CountLess(sorted, v+1))
		target := phi * n
		if target < lo-2*eps*n || target > hi+2*eps*n {
			t.Errorf("phi=%.2f: value %d has ranks [%g,%g], target %g (±%g)", phi, v, lo, hi, target, 2*eps*n)
		}
	}
	// Space must be sublinear: the whole point of the summary.
	if st.Size() > n/10 {
		t.Errorf("GK stream kept %d tuples for %d items", st.Size(), n)
	}
}

func TestStreamSorted(t *testing.T) {
	// Sorted input is GK's worst case for naive implementations.
	st := NewStream(0.05)
	for i := uint64(0); i < 5000; i++ {
		st.Insert(i)
	}
	v, err := st.Median()
	if err != nil {
		t.Fatal(err)
	}
	if v < 2000 || v > 3000 {
		t.Errorf("median of 0..4999 = %d", v)
	}
}

func TestProtocolMedianAccuracy(t *testing.T) {
	g := topology.Grid(16, 16)
	values := workload.Generate(workload.Uniform, g.N(), 1<<14, 6)
	nw := netsim.New(g, values, 1<<14)
	res, err := MedianProtocol(spantree.NewFast(nw), 24)
	if err != nil {
		t.Fatal(err)
	}
	sorted := core.SortedCopy(values)
	trueRank := uint64((len(values) + 1) / 2)
	lo := uint64(core.CountLess(sorted, res.Value)) + 1
	hi := uint64(core.CountLess(sorted, res.Value+1))
	if trueRank+res.MaxGap < lo || trueRank > hi+res.MaxGap {
		t.Errorf("median %d: true ranks [%d,%d], target %d, gap %d", res.Value, lo, hi, trueRank, res.MaxGap)
	}
	if res.Comm.TotalBits == 0 {
		t.Error("protocol charged nothing")
	}
	if res.N != uint64(g.N()) {
		t.Errorf("summary N = %d, want %d", res.N, g.N())
	}
}

func TestProtocolRejectsTinySummary(t *testing.T) {
	nw := netsim.New(topology.Line(4), []uint64{1, 2, 3, 4}, 10)
	if _, err := MedianProtocol(spantree.NewFast(nw), 1); err == nil {
		t.Error("size 1 accepted")
	}
}

func TestSummaryEncodeDecodeRoundTrip(t *testing.T) {
	values := workload.Generate(workload.Zipf, 300, 1<<12, 9)
	s := FromValues(values)
	s.Prune(20)
	c := summaryCombiner{size: 20, valueWidth: 12}
	w := bitio.NewWriter(64)
	c.AppendPartial(w, s)
	got, err := c.Decode(wire.FromWriter(w))
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(*Summary)
	if gs.N != s.N || len(gs.Entries) != len(s.Entries) {
		t.Fatalf("round trip shape: N %d→%d entries %d→%d", s.N, gs.N, len(s.Entries), len(gs.Entries))
	}
	for i := range gs.Entries {
		if gs.Entries[i] != s.Entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, gs.Entries[i], s.Entries[i])
		}
	}
}
