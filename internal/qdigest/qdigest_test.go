package qdigest

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

const maxX = 1<<12 - 1 // power-of-two domain: 4096 leaf buckets

func TestRangeOf(t *testing.T) {
	d := New(4, 7) // domain [0,7], depth 3
	tests := []struct {
		id     uint64
		lo, hi uint64
	}{
		{1, 0, 7}, {2, 0, 3}, {3, 4, 7}, {4, 0, 1}, {7, 6, 7},
		{8, 0, 0}, {15, 7, 7},
	}
	for _, tt := range tests {
		lo, hi := d.rangeOf(tt.id)
		if lo != tt.lo || hi != tt.hi {
			t.Errorf("rangeOf(%d) = [%d,%d], want [%d,%d]", tt.id, lo, hi, tt.lo, tt.hi)
		}
	}
}

func TestInsertQuantileExactWithoutCompression(t *testing.T) {
	// k huge => threshold 0 => no compression => exact quantiles.
	d := New(1<<20, maxX)
	values := []uint64{9, 1, 5, 5, 100, 42}
	for _, v := range values {
		d.Insert(v, 1)
	}
	sorted := core.SortedCopy(values)
	for k := 1; k <= len(values); k++ {
		got, err := d.Quantile(uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := core.TrueOrderStatistic(sorted, k); got != want {
			t.Errorf("rank %d: got %d, want %d", k, got, want)
		}
	}
}

func TestCompressBoundsBuckets(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	d := New(16, maxX)
	for i := 0; i < 10_000; i++ {
		d.Insert(rng.Uint64N(maxX+1), 1)
	}
	d.Compress()
	// q-digest property: at most 3k buckets survive compression.
	if d.Buckets() > 3*16 {
		t.Errorf("buckets = %d, want <= %d", d.Buckets(), 3*16)
	}
	if d.N() != 10_000 {
		t.Errorf("N = %d after compression", d.N())
	}
}

func TestQuantileErrorWithinBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	values := make([]uint64, 20_000)
	d := New(32, maxX)
	for i := range values {
		values[i] = rng.Uint64N(maxX + 1)
		d.Insert(values[i], 1)
	}
	d.Compress()
	sorted := core.SortedCopy(values)
	bound := d.RankErrorBound()
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		rank := uint64(phi * float64(len(values)))
		v, err := d.Quantile(rank)
		if err != nil {
			t.Fatal(err)
		}
		lo := uint64(core.CountLess(sorted, v))
		hi := uint64(core.CountLess(sorted, v+1))
		if rank+bound < lo || rank > hi+bound {
			t.Errorf("phi=%.1f: value %d has ranks [%d,%d], target %d, bound %d", phi, v, lo, hi, rank, bound)
		}
	}
}

// TestMergeEqualsBulkInsert: merging digests of a partition must answer
// like a digest of the union (within the shared error bound) and conserve
// counts exactly.
func TestMergeEqualsBulkInsert(t *testing.T) {
	check := func(raw []uint16, split uint8) bool {
		if len(raw) < 2 {
			return true
		}
		cut := int(split) % len(raw)
		a := New(8, maxX)
		b := New(8, maxX)
		for i, r := range raw {
			v := uint64(r) % (maxX + 1)
			if i < cut {
				a.Insert(v, 1)
			} else {
				b.Insert(v, 1)
			}
		}
		a.Compress()
		b.Compress()
		a.Merge(b)
		return a.N() == uint64(len(raw))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: randv1.New(randv1.NewSource(3))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	d := New(16, maxX)
	for i := 0; i < 5000; i++ {
		d.Insert(rng.Uint64N(maxX+1), 1)
	}
	d.Compress()
	c := combiner{k: 16, maxX: maxX}
	w := bitio.NewWriter(64)
	c.AppendPartial(w, d)
	got, err := c.Decode(wire.FromWriter(w))
	if err != nil {
		t.Fatal(err)
	}
	gd := got.(*Digest)
	if gd.N() != d.N() || gd.Buckets() != d.Buckets() {
		t.Fatalf("round trip: N %d→%d buckets %d→%d", d.N(), gd.N(), d.Buckets(), gd.Buckets())
	}
	for id, count := range d.counts {
		if gd.counts[id] != count {
			t.Errorf("bucket %d: %d → %d", id, count, gd.counts[id])
		}
	}
}

func TestProtocolMedian(t *testing.T) {
	g := topology.Grid(20, 20)
	values := workload.Generate(workload.Gaussian, g.N(), maxX, 5)
	nw := netsim.New(g, values, maxX)
	res, err := MedianProtocol(spantree.NewFast(nw), 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != uint64(g.N()) {
		t.Errorf("N = %d, want %d", res.N, g.N())
	}
	sorted := core.SortedCopy(values)
	rank := uint64((len(values) + 1) / 2)
	lo := uint64(core.CountLess(sorted, res.Value))
	hi := uint64(core.CountLess(sorted, res.Value+1))
	// Tree merging compounds per-merge error beyond the single-digest
	// bound; accept 3x.
	slack := 3 * res.RankErrorBound
	if rank+slack < lo || rank > hi+slack {
		t.Errorf("median %d: ranks [%d,%d], target %d, bound %d", res.Value, lo, hi, rank, slack)
	}
	if res.Comm.TotalBits == 0 {
		t.Error("protocol charged nothing")
	}
}

func TestProtocolCostSublinear(t *testing.T) {
	cost := func(n int) int64 {
		g := topology.Line(n)
		values := workload.Generate(workload.Uniform, n, maxX, 7)
		nw := netsim.New(g, values, maxX)
		res, err := MedianProtocol(spantree.NewFast(nw), 16)
		if err != nil {
			t.Fatal(err)
		}
		return res.Comm.MaxPerNode
	}
	c128, c1024 := cost(128), cost(1024)
	if ratio := float64(c1024) / float64(c128); ratio > 2 {
		t.Errorf("8x nodes grew per-node cost %.2fx — q-digest should be ~flat (3k buckets cap)", ratio)
	}
}

func TestValidation(t *testing.T) {
	g := topology.Line(4)
	nw := netsim.New(g, []uint64{1, 2, 3, 4}, maxX)
	if _, err := MedianProtocol(spantree.NewFast(nw), 0); err == nil {
		t.Error("k=0 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-domain insert should panic")
		}
	}()
	New(4, 7).Insert(8, 1)
}
