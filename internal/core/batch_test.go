package core

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// TestBatchedMatchesSelectRank is the batched path's correctness anchor:
// for random multisets, every rank, and several probe widths, the k-ary
// CountVec search must return exactly the value the Fig. 1 binary search
// returns — same statistic, fewer sweeps.
func TestBatchedMatchesSelectRank(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.IntN(60)
		maxX := uint64(1 + rng.IntN(500))
		values := make([]uint64, n)
		for i := range values {
			values[i] = rng.Uint64N(maxX + 1)
		}
		for _, width := range []int{1, 3, 8, 16} {
			net := NewLocalNet(values, maxX)
			for k := uint64(1); k <= uint64(n); k++ {
				want, err := oracleOrderStatistic(net, k)
				if err != nil {
					t.Fatalf("trial %d k=%d: OrderStatistic: %v", trial, k, err)
				}
				got, err := SelectRanksBatched(net, []BatchRank{{K: k}}, width)
				if err != nil {
					t.Fatalf("trial %d k=%d width=%d: batched: %v", trial, k, width, err)
				}
				if got.Values[0] != want.Value {
					t.Fatalf("trial %d k=%d width=%d: batched %d != binary %d (values %v)",
						trial, k, width, got.Values[0], want.Value, values)
				}
			}
			// The paper's median (half-integer rank for even N) must agree
			// too.
			want, err := oracleMedian(net)
			if err != nil {
				t.Fatalf("trial %d: Median: %v", trial, err)
			}
			got, err := SelectRanksBatched(net, []BatchRank{{Median: true}}, width)
			if err != nil {
				t.Fatalf("trial %d width=%d: batched median: %v", trial, width, err)
			}
			if got.Values[0] != want.Value {
				t.Fatalf("trial %d width=%d: batched median %d != Fig.1 median %d (values %v)",
					trial, width, got.Values[0], want.Value, values)
			}
		}
	}
}

// TestBatchedMultiQuantileSharedSchedule: a multi-rank request must answer
// every rank exactly, and sharing the probe schedule must cost fewer sweeps
// than answering the ranks one at a time.
func TestBatchedMultiQuantileSharedSchedule(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	values := make([]uint64, 500)
	maxX := uint64(1 << 14)
	for i := range values {
		values[i] = rng.Uint64N(maxX + 1)
	}
	net := NewLocalNet(values, maxX)
	phis := []float64{0.1, 0.25, 0.5, 0.9, 0.99}
	ranks := make([]BatchRank, len(phis))
	for i, phi := range phis {
		ranks[i] = BatchRank{Phi: phi}
	}
	shared, err := SelectRanksBatched(net, ranks, 8)
	if err != nil {
		t.Fatal(err)
	}
	separateSweeps := 0
	for i, phi := range phis {
		k := QuantileRank(phi, uint64(len(values)))
		if k < 1 {
			k = 1
		}
		want, err := OrderStatistic(net, k)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Values[i] != want.Values[0] {
			t.Errorf("phi=%g: shared %d != order statistic %d", phi, shared.Values[i], want.Values[0])
		}
		one, err := SelectRanksBatched(net, []BatchRank{{Phi: phi}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		separateSweeps += one.Sweeps
	}
	if shared.Sweeps >= separateSweeps {
		t.Errorf("shared schedule took %d sweeps, separate searches %d — no sharing benefit",
			shared.Sweeps, separateSweeps)
	}
}

// TestBatchedSweepCompression pins the headline ratio: at the default probe
// width, the batched search issues at least 3x fewer probe sweeps than the
// binary search issues COUNT rounds on the simulator's default domain.
func TestBatchedSweepCompression(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	maxX := uint64(4 * 4096)
	values := make([]uint64, 4096)
	for i := range values {
		values[i] = rng.Uint64N(maxX + 1)
	}
	net := NewLocalNet(values, maxX)
	det, err := oracleMedian(net)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := SelectRanksBatched(net, []BatchRank{{Median: true}}, DefaultProbeWidth)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Values[0] != det.Value {
		t.Fatalf("batched median %d != binary median %d", batched.Values[0], det.Value)
	}
	if 3*batched.Sweeps > det.CountCalls {
		t.Errorf("batched median took %d sweeps vs %d COUNT rounds — want ≥3x compression",
			batched.Sweeps, det.CountCalls)
	}
}

// TestBatchedFullUint64Domain: values spanning the entire uint64 range —
// where "max+1" has no representable threshold and naive i·(w+1)
// interpolation wraps — must still select exactly. The sweep-1 terminator
// degrades to a TRUE probe and the probe interpolation runs in 128 bits.
func TestBatchedFullUint64Domain(t *testing.T) {
	maxX := ^uint64(0)
	values := []uint64{0, 1, 5, 1 << 40, maxX / 2, maxX - 1, maxX, maxX}
	net := NewLocalNet(values, maxX)
	sorted := SortedCopy(values)
	for _, width := range []int{1, 8} {
		for k := uint64(1); k <= uint64(len(values)); k++ {
			got, err := SelectRanksBatched(net, []BatchRank{{K: k}}, width)
			if err != nil {
				t.Fatalf("width=%d k=%d: %v", width, k, err)
			}
			if want := TrueOrderStatistic(sorted, int(k)); got.Values[0] != want {
				t.Errorf("width=%d k=%d: got %d, want %d", width, k, got.Values[0], want)
			}
		}
		// The wide first sweep must actually spread its probes: the search
		// may not degenerate to hundreds of sweeps.
		res, err := SelectRanksBatched(net, []BatchRank{{Median: true}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sweeps > 30 {
			t.Errorf("full-domain median took %d sweeps — probe interpolation collapsed", res.Sweeps)
		}
	}
}

// TestBatchedEdgeCases covers the degenerate inputs the engine and query
// layers lean on.
func TestBatchedEdgeCases(t *testing.T) {
	net := NewLocalNet([]uint64{5, 5, 5}, 10)

	// No ranks: no sweeps, no error.
	res, err := SelectRanksBatched(net, nil, 8)
	if err != nil || res.Sweeps != 0 {
		t.Errorf("empty ranks: res=%+v err=%v, want zero-sweep success", res, err)
	}

	// Constant multiset: every rank answers the constant.
	res, err = SelectRanksBatched(net, []BatchRank{{K: 1}, {K: 2}, {K: 3}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if v != 5 {
			t.Errorf("constant multiset rank %d: got %d, want 5", i+1, v)
		}
	}

	// Duplicate ranks share one interval and return one value per input.
	res, err = SelectRanksBatched(net, []BatchRank{{K: 2}, {K: 2}}, 8)
	if err != nil || len(res.Values) != 2 || res.Values[0] != res.Values[1] {
		t.Errorf("duplicate ranks: res=%+v err=%v", res, err)
	}

	// Rank 0 and rank > N are rejected with the classic messages.
	if _, err := SelectRanksBatched(net, []BatchRank{{K: 0}}, 8); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("rank 0: err=%v", err)
	}
	if _, err := SelectRanksBatched(net, []BatchRank{{K: 4}}, 8); err == nil || !strings.Contains(err.Error(), "exceeds N") {
		t.Errorf("rank > N: err=%v", err)
	}
	if _, err := SelectRanksBatched(net, []BatchRank{{Phi: 1.5}}, 8); err == nil || !strings.Contains(err.Error(), "out of (0,1]") {
		t.Errorf("phi out of range: err=%v", err)
	}

	// Empty multiset: ErrEmpty, as in the binary search.
	empty := NewLocalNet(nil, 10)
	if _, err := SelectRanksBatched(empty, []BatchRank{{Median: true}}, 8); err != ErrEmpty {
		t.Errorf("empty multiset: err=%v, want ErrEmpty", err)
	}
}
