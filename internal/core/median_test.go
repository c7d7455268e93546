package core

import (
	randv1 "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// quickRand returns a deterministic v1 rand for testing/quick configs.
func quickRand(seed int64) *randv1.Rand {
	return randv1.New(randv1.NewSource(seed))
}

func localNet(t *testing.T, values []uint64, maxX uint64) *LocalNet {
	t.Helper()
	return NewLocalNet(values, maxX)
}

func TestMedianSmallCases(t *testing.T) {
	tests := []struct {
		name   string
		values []uint64
		maxX   uint64
		want   uint64
	}{
		{"single", []uint64{7}, 100, 7},
		{"two distinct", []uint64{3, 9}, 100, 3},
		{"three", []uint64{5, 1, 9}, 100, 5},
		{"four", []uint64{1, 2, 3, 4}, 100, 2},
		{"five", []uint64{10, 20, 30, 40, 50}, 100, 30},
		{"all equal", []uint64{4, 4, 4, 4}, 100, 4},
		{"duplicates", []uint64{2, 2, 2, 7, 7}, 100, 2},
		{"zeros", []uint64{0, 0, 1, 5}, 100, 0},
		{"adjacent", []uint64{6, 7}, 100, 6},
		{"max domain", []uint64{100, 100, 1}, 100, 100},
		{"skewed", []uint64{1, 1, 1, 1, 99}, 100, 1},
		{"wide spread", []uint64{0, 1, 1 << 20}, 1 << 20, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Median(localNet(t, tt.values, tt.maxX))
			if err != nil {
				t.Fatalf("Median: %v", err)
			}
			if res.Values[0] != tt.want {
				t.Errorf("Median(%v) = %d, want %d", tt.values, res.Values[0], tt.want)
			}
			sorted := SortedCopy(tt.values)
			if !IsMedian(sorted, res.Values[0]) {
				t.Errorf("Median(%v) = %d violates Definition 2.3", tt.values, res.Values[0])
			}
		})
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := Median(localNet(t, nil, 10)); err == nil {
		t.Fatal("Median on empty multiset: want error, got nil")
	}
}

func TestOrderStatisticAllRanks(t *testing.T) {
	values := []uint64{13, 2, 2, 40, 7, 7, 7, 99, 0, 55, 13}
	sorted := SortedCopy(values)
	net := localNet(t, values, 100)
	for k := 1; k <= len(values); k++ {
		res, err := OrderStatistic(net, uint64(k))
		if err != nil {
			t.Fatalf("OrderStatistic(k=%d): %v", k, err)
		}
		want := TrueOrderStatistic(sorted, k)
		if res.Values[0] != want {
			t.Errorf("OrderStatistic(k=%d) = %d, want %d", k, res.Values[0], want)
		}
		if !IsOrderStatistic(sorted, int64(2*k), res.Values[0]) {
			t.Errorf("OrderStatistic(k=%d) = %d violates Definition 2.3", k, res.Values[0])
		}
	}
}

func TestOrderStatisticRankValidation(t *testing.T) {
	net := localNet(t, []uint64{1, 2, 3}, 10)
	if _, err := OrderStatistic(net, 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := OrderStatistic(net, 4); err == nil {
		t.Error("k>N: want error")
	}
}

// TestMedianMatchesDefinitionProperty drives random multisets through the
// Fig. 1 search and asserts Definition 2.3 plus agreement with the sorted
// ground truth.
func TestMedianMatchesDefinitionProperty(t *testing.T) {
	const maxX = 1 << 16
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]uint64, len(raw))
		for i, v := range raw {
			values[i] = uint64(v)
		}
		res, err := Median(NewLocalNet(values, maxX))
		if err != nil {
			return false
		}
		sorted := SortedCopy(values)
		return res.Values[0] == TrueMedian(sorted) && IsMedian(sorted, res.Values[0])
	}
	cfg := &quick.Config{MaxCount: 300, Rand: quickRand(42)}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOrderStatisticProperty checks random (multiset, rank) pairs.
func TestOrderStatisticProperty(t *testing.T) {
	const maxX = 1 << 12
	check := func(raw []uint16, kSeed uint16) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]uint64, len(raw))
		for i, v := range raw {
			values[i] = uint64(v) % (maxX + 1)
		}
		k := uint64(kSeed)%uint64(len(values)) + 1
		res, err := OrderStatistic(NewLocalNet(values, maxX), k)
		if err != nil {
			return false
		}
		sorted := SortedCopy(values)
		return res.Values[0] == TrueOrderStatistic(sorted, int(k))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: quickRand(43)}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMedianIterationBound verifies Theorem 3.2's iteration count: the
// initial COUNT, then at most ⌈log(M−m)⌉ search iterations plus one
// tie-break probe.
func TestMedianIterationBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(500)
		maxX := uint64(1) << (4 + rng.IntN(16))
		values := make([]uint64, n)
		for i := range values {
			values[i] = rng.Uint64N(maxX + 1)
		}
		net := NewLocalNet(values, maxX)
		res, err := Median(net)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := net.MinMax(Linear)
		if lo == hi {
			continue
		}
		bound := int(ceilLog2(hi-lo)) + 2
		if res.Sweeps > bound {
			t.Errorf("sweeps %d exceed ⌈log(M−m)⌉+2 = %d (range %d)", res.Sweeps, bound, hi-lo)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	tests := []struct {
		x, want uint64
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1<<20 - 1, 19}, {1 << 20, 20},
	}
	for _, tt := range tests {
		if got := Log2Floor(tt.x); got != tt.want {
			t.Errorf("Log2Floor(%d) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	tests := []struct {
		x, want uint64
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
	}
	for _, tt := range tests {
		if got := ceilLog2(tt.x); got != tt.want {
			t.Errorf("ceilLog2(%d) = %d, want %d", tt.x, got, tt.want)
		}
	}
}
