package loglog

import (
	"math"
	randv1 "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"sensoragg/internal/bitio"
	"sensoragg/internal/hashing"
)

func TestSketchEstimateAccuracy(t *testing.T) {
	// Fact 2.2 / Durand–Flajolet: relative error concentrates around
	// σ ≈ 1.3/√m. With m=1024, σ ≈ 0.041; across trials the mean relative
	// error should be well within 3σ.
	const (
		p      = 10
		n      = 50_000
		trials = 20
	)
	var errSum float64
	for trial := 0; trial < trials; trial++ {
		h := hashing.New(uint64(trial) + 1)
		sk := New(p)
		for i := 0; i < n; i++ {
			sk.AddKey(h, uint64(i))
		}
		errSum += (sk.Estimate() - n) / n
	}
	meanBias := errSum / trials
	if math.Abs(meanBias) > 3*Sigma(1<<p)/math.Sqrt(trials) {
		t.Errorf("LogLog mean bias %.4f exceeds 3σ/√trials = %.4f", meanBias, 3*Sigma(1<<p)/math.Sqrt(trials))
	}
}

func TestHLLEstimateAccuracy(t *testing.T) {
	const (
		p      = 10
		n      = 50_000
		trials = 20
	)
	var errSum float64
	for trial := 0; trial < trials; trial++ {
		h := hashing.New(uint64(trial) + 1000)
		sk := NewHLL(p)
		for i := 0; i < n; i++ {
			sk.AddKey(h, uint64(i))
		}
		errSum += (sk.Estimate() - n) / n
	}
	meanBias := errSum / trials
	if math.Abs(meanBias) > 3*HLLSigma(1<<p)/math.Sqrt(trials) {
		t.Errorf("HLL mean bias %.4f too large", meanBias)
	}
}

func TestHLLSmallRange(t *testing.T) {
	// The whole reason HLL is the protocol default: near-empty sets must
	// estimate near zero, where plain LogLog is biased by ≈ 0.4·m.
	h := hashing.New(7)
	sk := NewHLL(10)
	if got := sk.Estimate(); got != 0 {
		t.Errorf("empty HLL estimate = %g, want 0", got)
	}
	for i := 0; i < 5; i++ {
		sk.AddKey(h, uint64(i))
	}
	if got := sk.Estimate(); got < 1 || got > 20 {
		t.Errorf("HLL estimate of 5 keys = %g, want near 5", got)
	}
	// Plain LogLog on the same registers is far off — documents the bias.
	if ll := sk.Sketch.Estimate(); ll < 100 {
		t.Logf("note: plain LogLog estimates %g for 5 keys (expected: heavily biased)", ll)
	}
}

func TestDuplicateInsensitivity(t *testing.T) {
	h := hashing.New(3)
	a := New(8)
	b := New(8)
	for i := 0; i < 1000; i++ {
		a.AddKey(h, uint64(i))
		b.AddKey(h, uint64(i))
		b.AddKey(h, uint64(i)) // every key twice
		b.AddKey(h, uint64(i%10))
	}
	if !a.Equal(b) {
		t.Error("duplicate insertions changed the sketch")
	}
}

// TestMergeAlgebra: merge must be commutative, associative, idempotent —
// the ODI synopsis properties of [2],[10].
func TestMergeAlgebra(t *testing.T) {
	build := func(keys []uint16, seed uint64) *Sketch {
		h := hashing.New(seed)
		s := New(6)
		for _, k := range keys {
			s.AddKey(h, uint64(k))
		}
		return s
	}
	check := func(ka, kb, kc []uint16) bool {
		a, b, c := build(ka, 1), build(kb, 1), build(kc, 1)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}
		aa := a.Clone()
		aa.Merge(a)
		return aa.Equal(a)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: randv1.New(randv1.NewSource(5))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	h := hashing.New(11)
	union := New(8)
	a := New(8)
	b := New(8)
	for i := 0; i < 500; i++ {
		union.AddKey(h, uint64(i))
		if i%2 == 0 {
			a.AddKey(h, uint64(i))
		} else {
			b.AddKey(h, uint64(i))
		}
	}
	a.Merge(b)
	if !a.Equal(union) {
		t.Error("merge of a partition differs from the union sketch")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := hashing.New(13)
	for _, p := range []int{0, 1, 4, 8} {
		s := New(p)
		for i := 0; i < 300; i++ {
			s.AddKey(h, uint64(i*7))
		}
		w := bitio.NewWriter(s.EncodedBits())
		s.AppendTo(w)
		if w.Len() != s.EncodedBits() {
			t.Errorf("p=%d: wrote %d bits, EncodedBits says %d", p, w.Len(), s.EncodedBits())
		}
		got, err := DecodeSketch(wireReader(w), p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !got.Equal(s) {
			t.Errorf("p=%d: decode mismatch", p)
		}
	}
}

func wireReader(w *bitio.Writer) *bitio.Reader {
	return bitio.NewReader(w.Bytes(), w.Len())
}

func TestMergeDifferentPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging different p should panic")
		}
	}()
	New(4).Merge(New(5))
}

func TestGeometricDistribution(t *testing.T) {
	// P(G = k) = 2^-k: mean 2, and max of n samples ≈ log2 n.
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 16
	var sum, max uint64
	for i := 0; i < n; i++ {
		g := Geometric(rng)
		sum += g
		if g > max {
			max = g
		}
	}
	mean := float64(sum) / n
	if mean < 1.9 || mean > 2.1 {
		t.Errorf("geometric mean = %.3f, want ≈ 2", mean)
	}
	if max < 12 || max > 30 {
		t.Errorf("max of %d samples = %d, want ≈ %d", n, max, 16)
	}
	est := MaxGeometricEstimate(max)
	if est < n/16 || est > n*16 {
		t.Errorf("single max estimate %g too far from %d (Θ(1) relative error expected)", est, n)
	}
}

func TestSigmaMonotone(t *testing.T) {
	for _, e := range []Estimator{EstLogLog, EstHLL} {
		prev := math.Inf(1)
		for _, m := range []int{16, 64, 256, 1024} {
			s := SigmaOf(e, m)
			if s >= prev {
				t.Errorf("%v: σ(%d) = %g not decreasing", e, m, s)
			}
			prev = s
		}
	}
}

func TestEstimatorString(t *testing.T) {
	if EstLogLog.String() != "loglog" || EstHLL.String() != "hll" {
		t.Error("estimator names changed")
	}
}

// exp2HLLEstimate is HLL.Estimate as it was before the 2^-r table: one
// math.Exp2 call per register, summed in register order.
func exp2HLLEstimate(s *Sketch) float64 {
	m := s.M()
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := hllAlpha(m) * float64(m) * float64(m) / sum
	if est <= 2.5*float64(m) && zeros > 0 {
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// TestHLLTableMatchesExp2: every table entry is the exact power, so the
// table sum — same terms, same order — reproduces the math.Exp2 estimate
// bit for bit, over sketches built from hashes and over sketches decoded
// from arbitrary bytes (registers up to 127).
func TestHLLTableMatchesExp2(t *testing.T) {
	for r := range pow2neg {
		if pow2neg[r] != math.Exp2(-float64(r)) {
			t.Fatalf("pow2neg[%d] = %g, math.Exp2 gives %g", r, pow2neg[r], math.Exp2(-float64(r)))
		}
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 300; trial++ {
		p := trial % 13
		built := New(p)
		for i, n := 0, rng.IntN(1<<(p+3)); i < n; i++ {
			built.Add(rng.Uint64())
		}
		w := bitio.NewWriter(built.EncodedBits())
		for i := 0; i < built.M(); i++ {
			w.WriteBits(rng.Uint64N(128), RegisterBits)
		}
		decoded, err := DecodeSketch(wireReader(w), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Sketch{built, decoded} {
			if got, want := (HLL{Sketch: s}).Estimate(), exp2HLLEstimate(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%d: estimate %v, math.Exp2 reference %v", p, got, want)
			}
		}
	}
}
