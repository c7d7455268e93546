package loglog

import (
	"fmt"
	"math"

	"sensoragg/internal/bitio"
)

// HLL is a HyperLogLog estimator view over a Sketch. HyperLogLog (Flajolet
// et al., 2007) post-dates the paper but shares the identical register
// structure — only the estimator changes (harmonic instead of geometric
// mean), improving σ from ≈1.30/√m to ≈1.04/√m at the same communication
// cost. We include it as the natural "future work" extension: every
// protocol parameterized by an α-counting estimator (Definition 2.1) can
// swap it in, and experiment E2 compares the two.
type HLL struct {
	*Sketch
}

// NewHLL returns an empty HyperLogLog sketch with 2^p registers.
func NewHLL(p int) HLL { return HLL{Sketch: New(p)} }

// pow2neg[r] is 2^-r, exact for every register value: Estimate sums these
// table entries instead of calling math.Exp2 per register.
var pow2neg = func() (t [256]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the HyperLogLog estimate with the standard small-range
// (linear counting) correction.
func (h HLL) Estimate() float64 {
	m := h.M()
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	est := hllAlpha(m) * float64(m) * float64(m) / sum
	if est <= 2.5*float64(m) && zeros > 0 {
		// Linear counting for the small-cardinality regime.
		est = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// hllAlpha is the HyperLogLog bias-correction constant.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		if m < 16 {
			return 0.673
		}
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// HLLSigma returns the asymptotic relative standard deviation of the
// HyperLogLog estimate, ≈ 1.04/√m.
func HLLSigma(m int) float64 {
	if m <= 0 {
		panic("loglog: m must be positive")
	}
	return 1.04 / math.Sqrt(float64(m))
}

// DecodeHLL reads an HLL sketch with 2^p registers from r.
func DecodeHLL(r *bitio.Reader, p int) (HLL, error) {
	s, err := DecodeSketch(r, p)
	if err != nil {
		return HLL{}, fmt.Errorf("loglog: decoding HLL: %w", err)
	}
	return HLL{Sketch: s}, nil
}
