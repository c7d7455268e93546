package agg

import (
	"math/rand/v2"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// Multi-item networks (§2.1/§5): the simulated primitives must agree with
// the local reference when nodes hold whole multisets.

func TestMultiItemDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	const maxX = 1 << 12
	g := topology.Grid(8, 8)
	items := make([][]uint64, g.N())
	total := 0
	for i := range items {
		count := rng.IntN(6)
		items[i] = make([]uint64, count)
		for j := range items[i] {
			items[i][j] = rng.Uint64N(maxX + 1)
		}
		total += count
	}

	nw := netsim.NewMulti(g, items, maxX, netsim.WithSeed(99))
	simNet := NewNet(spantree.NewFast(nw))
	locNet := core.NewLocalNetMulti(items, maxX, core.WithLocalSeed(99))

	// Exact primitives agree with each other and with ground truth.
	if got, want := simNet.Count(core.Linear, wire.True()), locNet.Count(core.Linear, wire.True()); got != want {
		t.Fatalf("Count: sim %d local %d", got, want)
	}
	if got := simNet.Count(core.Linear, wire.True()); got != uint64(total) {
		t.Fatalf("Count = %d, want %d", got, total)
	}
	sLo, sHi, sOK := simNet.MinMax(core.Linear)
	lLo, lHi, lOK := locNet.MinMax(core.Linear)
	if sLo != lLo || sHi != lHi || sOK != lOK {
		t.Fatalf("MinMax: sim (%d,%d,%v) local (%d,%d,%v)", sLo, sHi, sOK, lLo, lHi, lOK)
	}

	// Randomized estimates are bit-identical (same keys, same seeds).
	se := simNet.ApxCountRep(core.Linear, wire.Less(maxX/2), 4)
	le := locNet.ApxCountRep(core.Linear, wire.Less(maxX/2), 4)
	for i := range se {
		if se[i] != le[i] {
			t.Fatalf("instance %d: sim %g local %g", i, se[i], le[i])
		}
	}

	// The full APX MEDIAN2 agrees end to end.
	p := core.Apx2Params{Beta: 1.0 / 16, Epsilon: 0.25}
	simRes, err := core.ApxMedian2(simNet, p)
	if err != nil {
		t.Fatal(err)
	}
	locRes, err := core.ApxMedian2(locNet, p)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Value != locRes.Value {
		t.Errorf("apx2: sim %d local %d", simRes.Value, locRes.Value)
	}
}

func TestMultiItemMedianOnNetwork(t *testing.T) {
	g := topology.Line(5)
	items := [][]uint64{{9, 1}, {}, {4, 4, 4}, {100}, {2}}
	nw := netsim.NewMulti(g, items, 100)
	net := NewNet(spantree.NewFast(nw))
	res, err := core.Median(net)
	if err != nil {
		t.Fatal(err)
	}
	want := core.TrueMedian(core.SortedCopy(nw.AllItems()))
	if res.Values[0] != want {
		t.Errorf("median = %d, want %d", res.Values[0], want)
	}
}
