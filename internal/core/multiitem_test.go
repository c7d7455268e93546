package core

import (
	"math/rand/v2"
	"testing"
)

// Section 5 / §2.1: nodes may hold multisets. These tests drive the full
// algorithm suite over multi-item local nets.

func randomMultiItems(rng *rand.Rand, nodes int, maxItems int, maxX uint64) [][]uint64 {
	items := make([][]uint64, nodes)
	for i := range items {
		count := rng.IntN(maxItems + 1) // some nodes hold nothing
		items[i] = make([]uint64, count)
		for j := range items[i] {
			items[i][j] = rng.Uint64N(maxX + 1)
		}
	}
	return items
}

func flatten(items [][]uint64) []uint64 {
	var out []uint64
	for _, list := range items {
		out = append(out, list...)
	}
	return out
}

func TestMultiItemMedian(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0))
	for trial := 0; trial < 30; trial++ {
		const maxX = 1 << 10
		items := randomMultiItems(rng, 20, 5, maxX)
		all := flatten(items)
		if len(all) == 0 {
			continue
		}
		net := NewLocalNetMulti(items, maxX)
		res, err := Median(net)
		if err != nil {
			t.Fatal(err)
		}
		sorted := SortedCopy(all)
		if res.Values[0] != TrueMedian(sorted) {
			t.Errorf("trial %d: median = %d, want %d", trial, res.Values[0], TrueMedian(sorted))
		}
	}
}

func TestMultiItemOrderStatistics(t *testing.T) {
	items := [][]uint64{{10, 20, 30}, {}, {5}, {40, 50}, {25}}
	all := flatten(items)
	sorted := SortedCopy(all)
	net := NewLocalNetMulti(items, 100)
	if net.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", net.NumNodes())
	}
	for k := 1; k <= len(all); k++ {
		res, err := OrderStatistic(net, uint64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := TrueOrderStatistic(sorted, k); res.Values[0] != want {
			t.Errorf("k=%d: got %d, want %d", k, res.Values[0], want)
		}
	}
}

func TestMultiItemApxMedian2(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	const maxX = 1 << 14
	items := randomMultiItems(rng, 300, 8, maxX)
	all := flatten(items)
	net := NewLocalNetMulti(items, maxX, WithLocalSeed(3))
	res, err := ApxMedian2(net, Apx2Params{Beta: 1.0 / 32, Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	med := TrueMedian(SortedCopy(all))
	if diff := absDiff(res.Value, med); float64(diff) > float64(maxX)/2 {
		t.Errorf("multi-item apx2 value %d vs median %d", res.Value, med)
	}
}

func TestMultiItemEmptyNodes(t *testing.T) {
	net := NewLocalNetMulti([][]uint64{{}, {}, {7}, {}}, 10)
	res, err := Median(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 7 {
		t.Errorf("median = %d, want 7", res.Values[0])
	}
}

func TestMultiItemAllEmpty(t *testing.T) {
	net := NewLocalNetMulti([][]uint64{{}, {}}, 10)
	if _, err := Median(net); err == nil {
		t.Error("all-empty multiset should error")
	}
}
