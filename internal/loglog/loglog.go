// Package loglog implements the approximate counting sketches behind the
// paper's Fact 2.2.
//
// The basic idea (Section 2.2, following Alon–Matias–Szegedy [1], Durand–
// Flajolet [3] and Kirschenhofer–Prodinger [7]): if every item draws an
// independent geometric random variable with parameter 1/2, the maximum of
// N such samples concentrates around log2 N. A maximum is computable by the
// MAX primitive over values of O(log log N) bits. Durand–Flajolet's LogLog
// splits items into m buckets and averages the per-bucket maxima, giving an
// α-counting protocol (Definition 2.1) with bias α < 10⁻⁶ and relative
// standard deviation σ ≈ 1.298/√m, at O(m log log N) bits per message.
//
// The sketch is a pure max-merge structure: commutative, associative, and
// idempotent. Idempotence is what makes it an order- and duplicate-
// insensitive synopsis in the sense of Considine et al. [2] and Nath et
// al. [10] — re-merging a duplicated partial cannot change the result,
// which experiment E10 demonstrates.
package loglog

import (
	"fmt"
	"math"
	"math/bits"

	"sensoragg/internal/bitio"
	"sensoragg/internal/hashing"
)

// RegisterBits is the encoded width of one register. A register holds the
// position of the first 1-bit in a 64-bit hash suffix, so values fit in
// [0, 64] — 7 bits. This is the Θ(log log N) factor of Fact 2.2: doubling
// the number of *items* beyond 2^64 would require one more register bit.
const RegisterBits = 7

// Sketch is a Durand–Flajolet LogLog cardinality sketch with m = 2^p
// registers. The zero value is unusable; use New.
type Sketch struct {
	p    uint8
	regs []uint8
}

// New returns an empty sketch with 2^p registers. p must be in [0, 16].
func New(p int) *Sketch {
	if p < 0 || p > 16 {
		panic(fmt.Sprintf("loglog: p=%d out of range [0,16]", p))
	}
	return &Sketch{p: uint8(p), regs: make([]uint8, 1<<p)}
}

// M returns the number of registers m = 2^p.
func (s *Sketch) M() int { return 1 << s.p }

// P returns the register-count exponent p.
func (s *Sketch) P() int { return int(s.p) }

// Add inserts a 64-bit hash into the sketch. The low p bits select the
// bucket; the register keeps the maximum rho (position of the first 1-bit)
// of the remaining bits.
func (s *Sketch) Add(hash uint64) {
	bucket := hash & (uint64(s.M()) - 1)
	rest := hash >> s.p
	rho := uint8(bits.TrailingZeros64(rest)) + 1
	if rest == 0 {
		rho = uint8(64 - int(s.p) + 1)
	}
	if rho > s.regs[bucket] {
		s.regs[bucket] = rho
	}
}

// Merge folds other into s by bucket-wise max. Both sketches must have the
// same p.
func (s *Sketch) Merge(other *Sketch) {
	if s.p != other.p {
		panic(fmt.Sprintf("loglog: merging p=%d into p=%d", other.p, s.p))
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
}

// Reset empties every register, so one sketch can serve many instances.
func (s *Sketch) Reset() { clear(s.regs) }

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(int(s.p))
	copy(c.regs, s.regs)
	return c
}

// Equal reports whether two sketches have identical registers.
func (s *Sketch) Equal(other *Sketch) bool {
	if s.p != other.p {
		return false
	}
	for i, r := range other.regs {
		if s.regs[i] != r {
			return false
		}
	}
	return true
}

// alphaM returns the Durand–Flajolet bias-correction constant for m
// registers: α_m = (Γ(-1/m)·(1-2^{1/m})/ln 2)^{-m} → 0.39701 as m → ∞.
// We use the asymptotic constant with DF's small-m corrections; E2 verifies
// the resulting bias empirically.
func alphaM(m int) float64 {
	switch m {
	// Exact small-m values from Durand–Flajolet (2003), Table 1 region.
	case 1:
		return 0.35402
	case 2:
		return 0.37123
	case 4:
		return 0.38140
	case 8:
		return 0.38921
	case 16:
		return 0.39320
	case 32:
		return 0.39520
	case 64:
		return 0.39610
	default:
		return 0.39701
	}
}

// Estimate returns the LogLog cardinality estimate
// α_m · m · 2^{(1/m)·Σ registers}.
func (s *Sketch) Estimate() float64 {
	m := s.M()
	var sum float64
	for _, r := range s.regs {
		sum += float64(r)
	}
	return alphaM(m) * float64(m) * math.Exp2(sum/float64(m))
}

// Sigma returns the asymptotic relative standard deviation of the LogLog
// estimate, β_m/√m with β_m → 1.298 (Fact 2.2's σ bound).
func Sigma(m int) float64 {
	if m <= 0 {
		panic("loglog: m must be positive")
	}
	// β_m decreases toward 1.298; using the limit slightly underestimates σ
	// for small m, so pad with DF's small-m values.
	beta := 1.30
	if m < 64 {
		beta = 1.46
	}
	return beta / math.Sqrt(float64(m))
}

// EncodedBits returns the wire size of the sketch: m registers at
// RegisterBits each.
func (s *Sketch) EncodedBits() int { return s.M() * RegisterBits }

// AppendTo writes the registers to w.
func (s *Sketch) AppendTo(w *bitio.Writer) {
	for _, r := range s.regs {
		w.WriteBits(uint64(r), RegisterBits)
	}
}

// DecodeSketch reads a sketch with 2^p registers from r.
func DecodeSketch(r *bitio.Reader, p int) (*Sketch, error) {
	s := New(p)
	for i := range s.regs {
		v, err := r.ReadBits(RegisterBits)
		if err != nil {
			return nil, fmt.Errorf("loglog: decoding register %d: %w", i, err)
		}
		s.regs[i] = uint8(v)
	}
	return s, nil
}

// AddKey hashes key under the given seeded hasher and inserts it. Protocols
// use (instance seed, item key) so that repeated counting instances are
// independent (REP COUNTP, Fig. 2) while duplicates of the *same* item
// collide (duplicate insensitivity).
func (s *Sketch) AddKey(h hashing.Hasher, key uint64) {
	s.Add(h.Hash(key))
}
