package core

import (
	"fmt"

	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/wire"
)

// LocalNet implements Net directly over an in-memory slice, with no
// communication. It mirrors the semantics of the simulated network exactly
// — including the same LogLog sketch construction with the same hashing,
// estimated with agg.Net's default HLL estimator — so algorithm behaviour
// (including randomized estimates) is identical between LocalNet and
// agg.Net given the same seed and call sequence.
// Core's unit tests run on it; the differential tests in agg assert the
// equivalence.
type LocalNet struct {
	maxX   uint64
	sigma  float64
	alphaC float64
	p      int // sketch register exponent

	items    []localItem
	numNodes int
	seed     uint64
	instance uint64 // α-counting instances issued so far
}

type localItem struct {
	orig   uint64
	cur    uint64
	key    uint64 // stable item identity for sketch hashing
	active bool
}

var _ Net = (*LocalNet)(nil)

// LocalOption configures a LocalNet.
type LocalOption func(*LocalNet)

// WithLocalSketchP sets the LogLog register exponent p (m = 2^p).
func WithLocalSketchP(p int) LocalOption {
	return func(l *LocalNet) { l.p = p }
}

// WithLocalSeed sets the seed for the counting instances' hash functions.
func WithLocalSeed(seed uint64) LocalOption {
	return func(l *LocalNet) { l.seed = seed }
}

// DefaultSketchP is the default LogLog register exponent (m = 1024,
// σ ≈ 0.041): large enough that the Fig. 2 decision band α_c+σ stays well
// below 1/2.
const DefaultSketchP = 10

// NewLocalNet returns a LocalNet over the given multiset with domain bound
// maxX, one item per conceptual node. Values must not exceed maxX.
func NewLocalNet(values []uint64, maxX uint64, opts ...LocalOption) *LocalNet {
	l := newLocalNet(maxX, len(values), opts)
	l.items = make([]localItem, len(values))
	for i, v := range values {
		if v > maxX {
			panic(fmt.Sprintf("core: value %d exceeds maxX %d", v, maxX))
		}
		l.items[i] = localItem{orig: v, cur: v, key: uint64(i), active: true}
	}
	return l
}

// NewLocalNetMulti returns a LocalNet where conceptual node i holds the
// multiset items[i] — the nonsingleton-input generalization of §2.1/§5.
// Item keys match agg.Net's global item numbering so differential tests
// hold in the multi-item case too.
func NewLocalNetMulti(items [][]uint64, maxX uint64, opts ...LocalOption) *LocalNet {
	total := 0
	for _, list := range items {
		total += len(list)
	}
	l := newLocalNet(maxX, len(items), opts)
	l.items = make([]localItem, 0, total)
	key := uint64(0)
	for node, list := range items {
		for _, v := range list {
			if v > maxX {
				panic(fmt.Sprintf("core: value %d at node %d exceeds maxX %d", v, node, maxX))
			}
			l.items = append(l.items, localItem{orig: v, cur: v, key: key, active: true})
			key++
		}
	}
	l.numNodes = len(items)
	return l
}

func newLocalNet(maxX uint64, numNodes int, opts []LocalOption) *LocalNet {
	l := &LocalNet{maxX: maxX, p: DefaultSketchP, seed: 1, numNodes: numNodes}
	for _, o := range opts {
		o(l)
	}
	m := 1 << l.p
	l.sigma = loglog.SigmaOf(loglog.EstHLL, m)
	l.alphaC = 1e-6 // Fact 2.2: α < 10⁻⁶, and α_c < σ/2 holds for all m ≤ 2^16
	return l
}

// NumNodes implements Net.
func (l *LocalNet) NumNodes() int { return l.numNodes }

// MaxX implements Net.
func (l *LocalNet) MaxX() uint64 { return l.maxX }

func (l *LocalNet) value(it localItem, d Domain) uint64 {
	switch d {
	case Linear:
		return it.cur
	case LogDomain:
		return Log2Floor(it.cur)
	default:
		panic(fmt.Sprintf("core: invalid domain %d", d))
	}
}

// MinMax implements Net.
func (l *LocalNet) MinMax(d Domain) (lo, hi uint64, ok bool) {
	for _, it := range l.items {
		if !it.active {
			continue
		}
		v := l.value(it, d)
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, ok
}

// Count implements Net.
func (l *LocalNet) Count(d Domain, pred wire.Pred) uint64 {
	var c uint64
	for _, it := range l.items {
		if it.active && pred.Eval(l.value(it, d)) {
			c++
		}
	}
	return c
}

// CountVec implements Net: the batched COUNTP probe plane, evaluated
// directly over the slice.
func (l *LocalNet) CountVec(d Domain, preds []wire.Pred, dst []uint64) []uint64 {
	dst = dst[:0]
	for _, p := range preds {
		dst = append(dst, l.Count(d, p))
	}
	return dst
}

// ApxCountRep implements Net: r independent LogLog estimates over the
// active items matching pred. Instance seeds advance a persistent counter
// so every call uses fresh hash functions.
func (l *LocalNet) ApxCountRep(d Domain, pred wire.Pred, r int) []float64 {
	out := make([]float64, r)
	for i := 0; i < r; i++ {
		l.instance++
		h := hashing.New(hashing.Mix64(l.seed) ^ l.instance)
		sk := loglog.New(l.p)
		for _, it := range l.items {
			if it.active && pred.Eval(l.value(it, d)) {
				sk.AddKey(h, it.key)
			}
		}
		out[i] = loglog.EstimateWith(sk, loglog.EstHLL)
	}
	return out
}

// ApxSigma implements Net.
func (l *LocalNet) ApxSigma() float64 { return l.sigma }

// ApxAlpha implements Net.
func (l *LocalNet) ApxAlpha() float64 { return l.alphaC }

// Zoom implements Net (Fig. 4 lines 3.2–3.3).
func (l *LocalNet) Zoom(muHat uint64) {
	lo := uint64(1) << muHat
	hi := lo << 1
	if muHat == 0 {
		lo = 0 // bucket 0 holds values {0, 1}
	}
	width := hi - 1 - lo // 2^µ̂ − 1 in the paper's notation (lo = 2^µ̂)
	for i := range l.items {
		it := &l.items[i]
		if !it.active {
			continue
		}
		if it.cur < lo || it.cur >= hi {
			it.active = false
			continue
		}
		it.cur = RescaleValue(it.cur, lo, width, l.maxX)
	}
}

// Reset implements Net.
func (l *LocalNet) Reset() {
	for i := range l.items {
		l.items[i].cur = l.items[i].orig
		l.items[i].active = true
	}
}

// RescaleValue applies the Fig. 4 line 3.2 affine stretch to a value in
// [lo, lo+width]: x ↦ 1 + (x − lo)·(X−1)/width, with integer floor. When
// the interval has zero width (µ̂ = 0) the value maps to 1 — a single point
// needs no stretching. Shared by every Net implementation so node-local
// behaviour matches everywhere.
func RescaleValue(x, lo, width, maxX uint64) uint64 {
	if width == 0 {
		return 1
	}
	return 1 + (x-lo)*(maxX-1)/width
}
