package core

import (
	"math/rand/v2"
	"testing"
)

func uniformValues(rng *rand.Rand, n int, maxX uint64) []uint64 {
	values := make([]uint64, n)
	for i := range values {
		values[i] = rng.Uint64N(maxX + 1)
	}
	return values
}

func TestApxMedianRankGuarantee(t *testing.T) {
	// Theorem 4.5: with probability ≥ 1−ε the output is an (α, β)-median
	// with α = 3σ, β = 1/N. We run repeated trials and require the failure
	// rate to stay under ε with slack for the trial count.
	const (
		n      = 4096
		maxX   = 1 << 14
		trials = 30
		eps    = 0.25
	)
	rng := rand.New(rand.NewPCG(11, 0))
	values := uniformValues(rng, n, maxX)
	sorted := SortedCopy(values)

	failures := 0
	var sigma float64
	for trial := 0; trial < trials; trial++ {
		net := NewLocalNet(values, maxX, WithLocalSeed(uint64(trial)+100))
		sigma = net.ApxSigma()
		res, err := ApxMedian(net, ApxParams{Epsilon: eps})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alpha := 3 * sigma
		// Allow β slack of 1/N in the value dimension per the theorem.
		if BetaNeeded(sorted, float64(n)/2, alpha, res.Value, maxX) > 1.0/float64(n)+1e-9 {
			failures++
		}
	}
	// ε=0.25 over 30 trials: expectation ≤ 7.5; 15+ failures would be a
	// > 3σ_binomial excursion — treat as a bug.
	if failures > trials/2 {
		t.Errorf("apx median failed the (3σ, 1/N) guarantee in %d/%d trials (σ=%.4f)", failures, trials, sigma)
	}
}

func TestApxMedianSingleValue(t *testing.T) {
	net := NewLocalNet([]uint64{9, 9, 9, 9}, 100)
	res, err := ApxMedian(net, ApxParams{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 9 {
		t.Errorf("constant multiset: got %d, want 9", res.Value)
	}
	if res.Instances != 0 {
		t.Errorf("constant multiset should shortcut after MIN/MAX, used %d instances", res.Instances)
	}
}

func TestApxMedianEmpty(t *testing.T) {
	net := NewLocalNet(nil, 100)
	if _, err := ApxMedian(net, ApxParams{}); err == nil {
		t.Fatal("want error on empty multiset")
	}
}

func TestApxOrderStatisticQuartiles(t *testing.T) {
	const (
		n    = 4096
		maxX = 1 << 14
	)
	rng := rand.New(rand.NewPCG(12, 0))
	values := uniformValues(rng, n, maxX)
	sorted := SortedCopy(values)

	for _, frac := range []float64{0.25, 0.5, 0.75} {
		k := frac * n
		net := NewLocalNet(values, maxX, WithLocalSeed(77))
		res, err := ApxOrderStatistic(net, ApxParams{Epsilon: 0.2}, k)
		if err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		alpha := 3 * net.ApxSigma()
		// Loose acceptance: within 2× the theorem band (single trial).
		if got := BetaNeeded(sorted, k, 2*alpha, res.Value, maxX); got > 0.05 {
			t.Errorf("k=%g: value %d misses even the doubled band (βNeeded=%.4f)", k, res.Value, got)
		}
	}
}

func TestApxMedianRejectsWideBand(t *testing.T) {
	// With m = 2 registers σ ≈ 1 > 1/2: the Fig. 2 thresholds are
	// meaningless and the implementation must refuse.
	net := NewLocalNet([]uint64{1, 2, 3, 4, 5}, 10, WithLocalSketchP(1))
	if _, err := ApxMedian(net, ApxParams{}); err == nil {
		t.Fatal("want error when α_c+σ ≥ 1/2")
	}
}

func TestApxMedian2Precision(t *testing.T) {
	const (
		n    = 2048
		maxX = 1 << 16
	)
	rng := rand.New(rand.NewPCG(13, 0))
	values := uniformValues(rng, n, maxX)
	sorted := SortedCopy(values)
	med := TrueMedian(sorted)

	net := NewLocalNet(values, maxX, WithLocalSeed(5))
	res, err := ApxMedian2(net, Apx2Params{Beta: 1.0 / 64, Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// The output must be near the true median in *value*: within a few
	// multiples of β·X plus the rank-error slack (α = O(σ·log 1/β)).
	diff := absDiff(res.Value, med)
	limit := 8 * float64(maxX) / 64 // generous single-trial envelope
	if float64(diff) > limit {
		t.Errorf("apx2 value %d vs true median %d: |Δ|=%d exceeds %g", res.Value, med, diff, limit)
	}
	if res.Stages < 1 {
		t.Error("expected at least one zoom stage")
	}
	if res.FinalHi <= res.FinalLo {
		t.Errorf("degenerate final interval [%g, %g)", res.FinalLo, res.FinalHi)
	}
}

func TestApxMedian2IntervalShrinks(t *testing.T) {
	// Each extra stage must localize the median to a (weakly) narrower
	// original-domain interval.
	const (
		n    = 2048
		maxX = 1 << 16
	)
	rng := rand.New(rand.NewPCG(14, 0))
	values := uniformValues(rng, n, maxX)

	var prevWidth float64 = float64(maxX) + 1
	for _, beta := range []float64{0.5, 1.0 / 8, 1.0 / 64} {
		net := NewLocalNet(values, maxX, WithLocalSeed(6))
		res, err := ApxMedian2(net, Apx2Params{Beta: beta, Epsilon: 0.25})
		if err != nil {
			t.Fatalf("beta=%g: %v", beta, err)
		}
		width := res.FinalHi - res.FinalLo
		if width > prevWidth*1.5 { // noisy runs may wobble; demand overall shrink
			t.Errorf("beta=%g: interval width %g did not shrink (prev %g)", beta, width, prevWidth)
		}
		prevWidth = width
	}
}

func TestApxMedian2ResetsItems(t *testing.T) {
	values := []uint64{5, 9, 1, 33, 7, 7, 2, 64}
	net := NewLocalNet(values, 64)
	if _, err := ApxMedian2(net, Apx2Params{Beta: 0.25}); err != nil {
		t.Fatal(err)
	}
	// After the run the net must be reusable: the deterministic median must
	// still see the original multiset.
	res, err := Median(net)
	if err != nil {
		t.Fatal(err)
	}
	if want := TrueMedian(SortedCopy(values)); res.Values[0] != want {
		t.Errorf("after ApxMedian2, Median = %d, want %d (items not reset?)", res.Values[0], want)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
