package core

import (
	"strings"
	"testing"

	"sensoragg/internal/wire"
)

func TestDomainString(t *testing.T) {
	if Linear.String() != "linear" || LogDomain.String() != "log" {
		t.Error("domain names changed")
	}
	if !strings.Contains(Domain(99).String(), "99") {
		t.Error("invalid domain should render its value")
	}
}

func TestRepCountClampsRepetitions(t *testing.T) {
	net := NewLocalNet([]uint64{1, 2, 3}, 10)
	// r < 1 must still run one instance, not panic or divide by zero.
	if got := RepCount(net, Linear, wire.True(), 0); got <= 0 {
		t.Errorf("RepCount(r=0) = %g", got)
	}
}

func TestLocalNetLogDomain(t *testing.T) {
	net := NewLocalNet([]uint64{0, 1, 2, 4, 8, 1023}, 1023)
	lo, hi, ok := net.MinMax(LogDomain)
	if !ok || lo != 0 || hi != 9 {
		t.Errorf("log MinMax = (%d,%d,%v), want (0,9,true)", lo, hi, ok)
	}
	// Buckets: {0,1}→0, {2}→1, {4}→2, {8}→3, {1023}→9.
	if got := net.Count(LogDomain, wire.Less(2)); got != 3 {
		t.Errorf("log Count(<2) = %d, want 3", got)
	}
}

func TestApxParamsDefaults(t *testing.T) {
	p := ApxParams{}.withDefaults()
	if p.Epsilon != 0.25 || p.RepScaleInit != 2 || p.RepScaleIter != 6 {
		t.Errorf("defaults = %+v", p)
	}
	q := ApxParams{Epsilon: 0.1, RepScaleIter: 32}.withDefaults()
	if q.Epsilon != 0.1 || q.RepScaleIter != 32 || q.RepScaleInit != 2 {
		t.Errorf("partial override = %+v", q)
	}
}

func TestApx2ParamsDefaults(t *testing.T) {
	p := Apx2Params{}.withDefaults()
	if p.Beta != 1.0/64 || p.Epsilon != 0.25 {
		t.Errorf("defaults = %+v", p)
	}
	if q := (Apx2Params{Beta: 2}).withDefaults(); q.Beta != 0.5 {
		t.Errorf("β ≥ 1 should clamp to 0.5, got %g", q.Beta)
	}
}

func TestApxOrderStatisticNegativeRank(t *testing.T) {
	net := NewLocalNet([]uint64{1, 2, 3}, 10)
	if _, err := ApxOrderStatistic(net, ApxParams{}, -2); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestApxMedianBandValidation(t *testing.T) {
	// α_c ≥ σ/2 must be rejected per the Section 4 standing assumption.
	net := NewLocalNet([]uint64{1, 5, 9, 13}, 16)
	net.alphaC = net.sigma // violates α_c < σ/2
	if _, err := ApxMedian(net, ApxParams{}); err == nil {
		t.Error("α_c ≥ σ/2 accepted")
	}
}

func TestZoomTopBucket(t *testing.T) {
	// Zooming into the top binade [2^9, 2^10) of a 10-bit domain.
	values := []uint64{512, 700, 1023, 100, 5}
	net := NewLocalNet(values, 1023)
	net.Zoom(9)
	// Only 512, 700, 1023 stay active.
	if got := net.Count(Linear, wire.True()); got != 3 {
		t.Errorf("active after top-binade zoom = %d, want 3", got)
	}
	// Rescaled values must span [1, maxX] and preserve order.
	lo, hi, _ := net.MinMax(Linear)
	if lo < 1 || hi > 1023 {
		t.Errorf("rescaled range [%d,%d] outside [1,1023]", lo, hi)
	}
	net.Reset()
	if got := net.Count(Linear, wire.True()); got != 5 {
		t.Errorf("reset restored %d items, want 5", got)
	}
}

func TestZoomBucketZeroKeepsZeros(t *testing.T) {
	values := []uint64{0, 1, 2, 50}
	net := NewLocalNet(values, 63)
	net.Zoom(0)
	// Bucket 0 holds {0, 1}: two items stay active.
	if got := net.Count(Linear, wire.True()); got != 2 {
		t.Errorf("bucket-0 zoom kept %d items, want 2", got)
	}
	// 0 and 1 must remain distinguishable after the stretch.
	lo, hi, _ := net.MinMax(Linear)
	if lo == hi {
		t.Error("zoom collapsed distinct values 0 and 1")
	}
}

func TestMedianCountCallsAccounting(t *testing.T) {
	net := NewLocalNet([]uint64{3, 1, 4, 1, 5, 9, 2, 6}, 16)
	res, err := Median(net)
	if err != nil {
		t.Fatal(err)
	}
	// One COUNTP per sweep: the initial COUNT, then one probe per step.
	if res.Probes != res.Sweeps {
		t.Errorf("Probes = %d, Sweeps = %d", res.Probes, res.Sweeps)
	}
}

func TestSortedCopyDoesNotMutate(t *testing.T) {
	values := []uint64{3, 1, 2}
	_ = SortedCopy(values)
	if values[0] != 3 {
		t.Error("SortedCopy mutated its input")
	}
}

func TestBetaNeededEdges(t *testing.T) {
	sorted := []uint64{10, 20, 30, 40, 50}
	// y exactly a witness: β = 0.
	if b := BetaNeeded(sorted, 2.5, 0, 30, 100); b != 0 {
		t.Errorf("witness value: β = %g", b)
	}
	// y far below every witness: positive β.
	if b := BetaNeeded(sorted, 2.5, 0, 0, 100); b <= 0 {
		t.Errorf("distant value: β = %g", b)
	}
	// Huge α makes everything a witness.
	if b := BetaNeeded(sorted, 2.5, 10, 0, 100); b != 0 {
		t.Errorf("α=10: β = %g", b)
	}
}

func TestAlphaNeededExactMedian(t *testing.T) {
	sorted := []uint64{1, 2, 3, 4, 5}
	if a := AlphaNeeded(sorted, 2.5, 3); a > 0.2 {
		t.Errorf("true median needs α = %g", a)
	}
	if a := AlphaNeeded(sorted, 2.5, 5); a < 0.5 {
		t.Errorf("max as median needs α = %g, want large", a)
	}
}
