// Package ams implements the Alon–Matias–Szegedy "tug-of-war" sketch for
// the second frequency moment F₂ = Σ_v f_v² — the paper's reference [1],
// whose techniques underlie the approximate-counting toolbox of Section
// 2.2 (COUNT DISTINCT is the frequency moment F₀; AMS is the canonical
// estimator for F₂). F₂ measures how skewed the value distribution is
// (repeat rate / self-join size), a natural companion query for the
// duplicate-heavy workloads of Section 5.
//
// Each of the s = rows·cols counters accumulates Σ_v f_v·ξ(v) for a
// four-wise-independent ±1 hash ξ; squaring estimates F₂ with relative
// variance ≤ 2/cols after averaging a row, and the median of rows boosts
// confidence. Counters are linear, so sketches over disjoint multisets
// merge by addition — a convergecast-friendly (though *not* duplicate-
// insensitive) aggregate.
package ams

import (
	"fmt"
	"sort"

	"sensoragg/internal/bitio"
	"sensoragg/internal/hashing"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// Sketch is an AMS tug-of-war sketch with rows×cols counters. The zero
// value is unusable; use New.
type Sketch struct {
	rows, cols int
	seed       uint64
	counters   []int64 // row-major
}

// New returns an empty sketch: cols controls variance (relative std dev
// ≈ √(2/cols)), rows the failure probability (median-of-rows).
func New(rows, cols int, seed uint64) *Sketch {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("ams: invalid shape %dx%d", rows, cols))
	}
	return &Sketch{rows: rows, cols: cols, seed: seed, counters: make([]int64, rows*cols)}
}

// sign returns the ±1 hash ξ_{r,c}(v). SplitMix64 mixing gives far more
// than the four-wise independence the analysis needs. The seed is mixed
// before (r, c) joins it: seeds that differ only in their low bits would
// otherwise merely permute a row's columns and repeat one estimate.
func (s *Sketch) sign(r, c int, v uint64) int64 {
	h := hashing.New(hashing.Mix64(s.seed) ^ uint64(r)<<32 ^ uint64(c))
	if h.Hash(v)&1 == 1 {
		return 1
	}
	return -1
}

// Add inserts one occurrence of value v.
func (s *Sketch) Add(v uint64) {
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			s.counters[r*s.cols+c] += s.sign(r, c, v)
		}
	}
}

// Merge adds other's counters (same shape and seed required): valid
// because the counters are linear in the input multiset.
func (s *Sketch) Merge(other *Sketch) {
	if s.rows != other.rows || s.cols != other.cols || s.seed != other.seed {
		panic("ams: merging incompatible sketches")
	}
	for i, c := range other.counters {
		s.counters[i] += c
	}
}

// EstimateF2 returns the median over rows of the mean over columns of the
// squared counters.
func (s *Sketch) EstimateF2() float64 {
	rowEst := make([]float64, s.rows)
	for r := 0; r < s.rows; r++ {
		var sum float64
		for c := 0; c < s.cols; c++ {
			x := float64(s.counters[r*s.cols+c])
			sum += x * x
		}
		rowEst[r] = sum / float64(s.cols)
	}
	sort.Float64s(rowEst)
	mid := len(rowEst) / 2
	if len(rowEst)%2 == 1 {
		return rowEst[mid]
	}
	return (rowEst[mid-1] + rowEst[mid]) / 2
}

// counterBits is the fixed wire width of one counter (zig-zag encoded).
// Counters are bounded by N ≤ 2^31 items in magnitude.
const counterBits = 32

// EncodedBits returns the wire size of the sketch.
func (s *Sketch) EncodedBits() int { return len(s.counters) * counterBits }

// AppendTo serializes the counters (zig-zag fixed width).
func (s *Sketch) AppendTo(w *bitio.Writer) {
	for _, c := range s.counters {
		w.WriteBits(zigzag(c), counterBits)
	}
}

// DecodeInto parses counters serialized by AppendTo into a fresh sketch
// with the given shape and seed.
func DecodeInto(r *bitio.Reader, rows, cols int, seed uint64) (*Sketch, error) {
	s := New(rows, cols, seed)
	for i := range s.counters {
		v, err := r.ReadBits(counterBits)
		if err != nil {
			return nil, fmt.Errorf("ams: decoding counter %d: %w", i, err)
		}
		s.counters[i] = unzigzag(v)
	}
	return s, nil
}

func zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// TrueF2 computes Σ f_v² directly (ground truth for tests/experiments).
func TrueF2(values []uint64) float64 {
	freq := make(map[uint64]int64, len(values))
	for _, v := range values {
		freq[v]++
	}
	var f2 float64
	for _, f := range freq {
		f2 += float64(f) * float64(f)
	}
	return f2
}

// --- tree protocol ---

// Result reports an F₂ protocol run.
type Result struct {
	// Estimate is the root's F₂ estimate.
	Estimate float64
	// Comm is the communication accrued.
	Comm netsim.Delta
}

type combiner struct {
	rows, cols int
	seed       uint64
}

var _ spantree.Combiner = combiner{}

func (c combiner) Local(n *netsim.Node) any {
	s := New(c.rows, c.cols, c.seed)
	for _, it := range n.Items {
		if it.Active {
			s.Add(it.Cur)
		}
	}
	return s
}

func (c combiner) Merge(acc, child any) any {
	a := acc.(*Sketch)
	a.Merge(child.(*Sketch))
	return a
}

func (c combiner) AppendPartial(w *bitio.Writer, p any) { p.(*Sketch).AppendTo(w) }

func (c combiner) Decode(pl wire.Payload) (any, error) {
	return DecodeInto(pl.Reader(), c.rows, c.cols, c.seed)
}

// F2Protocol estimates the second frequency moment of the active items by
// a single sketch convergecast; per-node cost is Θ(rows·cols·32) bits,
// independent of N.
func F2Protocol(ops spantree.Ops, rows, cols int, seed uint64) (Result, error) {
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	out, err := ops.Convergecast(combiner{rows: rows, cols: cols, seed: seed})
	if err != nil {
		return Result{}, fmt.Errorf("ams: convergecast: %w", err)
	}
	return Result{
		Estimate: out.(*Sketch).EstimateF2(),
		Comm:     nw.Meter.Since(before),
	}, nil
}
