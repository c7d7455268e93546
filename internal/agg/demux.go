package agg

import (
	"slices"
	"sort"

	"sensoragg/internal/core"
	"sensoragg/internal/wire"
)

// SweepMux is the shared-sweep multiplexer the fusion plane ran on before
// every selection moved onto one core.Plane: many concurrent queries
// propose probe thresholds, the mux merges them into one deduplicated
// ascending ⊆-chain, ships the chain as a single CountVec
// broadcast–convergecast (optionally widened by the CountVecSum aggregate
// rider), and demultiplexes the counts back so each query reads exactly
// the counts it asked for — the "one round serves many tasks" move of the
// congested-clique literature. It has no product caller left: only the
// benchmark's replay rung runs on it, and it is deleted with that replay.
//
// A mux belongs to one driver; it is not safe for concurrent use. The
// per-sweep protocol:
//
//	m.Begin()
//	m.Add(stepperA.Propose(...))   // each member's proposals
//	m.Add(stepperB.Propose(...))
//	m.AddTop(hi)                   // first sweep: the all-active count
//	m.Sweep(core.Linear)
//	c, ok := m.CountAt(t)          // one member threshold's count, or
//	m.Thresholds(); m.Counts()     // the whole merged chain
type SweepMux struct {
	net *Net

	thresholds []uint64
	counts     []uint64
	preds      []wire.Pred

	top     bool   // probe the all-active count this sweep
	trueTop bool   // ... via the TRUE terminator (hi is 2⁶⁴−1)
	topAt   uint64 // ... via the chain slot "x < topAt" otherwise
	withSum bool

	swept    bool
	topCount uint64
	sum      uint64

	// Sweeps and ProbesShipped account the rounds and predicates the mux
	// has executed since construction — the numbers fusion compresses.
	Sweeps        int
	ProbesShipped int
}

// NewSweepMux returns a mux running its sweeps on net.
func NewSweepMux(net *Net) *SweepMux { return &SweepMux{net: net} }

// Begin starts a new sweep: proposals cleared, riders off.
func (m *SweepMux) Begin() {
	m.thresholds = m.thresholds[:0]
	m.top, m.trueTop, m.withSum, m.swept = false, false, false, false
}

// Add contributes probe thresholds to the sweep. Order and duplicates
// don't matter — Sweep sorts and dedupes the union.
func (m *SweepMux) Add(thresholds []uint64) {
	m.thresholds = append(m.thresholds, thresholds...)
}

// AddTop asks the sweep to also count every active item: the probe
// "x < hi+1" joins the chain when representable; a maximum at 2⁶⁴−1 rides
// the TRUE terminator instead. hi must be the active maximum (from the
// batch's MinMax round).
func (m *SweepMux) AddTop(hi uint64) {
	m.top = true
	if hi == ^uint64(0) {
		m.trueTop = true
		return
	}
	m.topAt = hi + 1
	m.thresholds = append(m.thresholds, m.topAt)
}

// AddSum asks the sweep to ride the SUM of all active items along the
// convergecast (the CountVecSum widened vector).
func (m *SweepMux) AddSum() { m.withSum = true }

// Sweep merges the proposals into one ascending deduplicated chain and
// runs it as a single probe-plane round over domain d. No proposals and no
// riders is a no-op.
func (m *SweepMux) Sweep(d core.Domain) {
	slices.Sort(m.thresholds)
	m.thresholds = slices.Compact(m.thresholds)
	m.preds = m.preds[:0]
	for _, t := range m.thresholds {
		m.preds = append(m.preds, wire.Less(t))
	}
	if m.trueTop {
		m.preds = append(m.preds, wire.True())
	}
	if len(m.preds) == 0 {
		return
	}
	if m.withSum {
		var chainCounts []uint64
		chainCounts, m.sum = m.net.CountVecSum(d, m.preds, m.counts)
		m.counts = chainCounts
	} else {
		m.counts = m.net.CountVec(d, m.preds, m.counts)
	}
	m.Sweeps++
	m.ProbesShipped += len(m.preds)
	m.swept = true
	if m.top {
		m.topCount = m.counts[len(m.counts)-1]
		if !m.trueTop {
			// The top probe is a regular chain slot; its count is the
			// all-active total because no active item reaches hi+1.
			c, ok := m.CountAt(m.topAt)
			if !ok {
				panic("agg: sweep mux lost its top probe")
			}
			m.topCount = c
		}
	}
}

// Thresholds returns the merged ascending chain of the last sweep
// (excluding the TRUE terminator). Counts returns the matching counts —
// counts[i] is the number of active items strictly below thresholds[i].
// Feeding the full chain to every member is always sound: counts are
// global facts, and a member's search ignores thresholds outside its
// candidate intervals.
func (m *SweepMux) Thresholds() []uint64 { return m.thresholds }

// Counts returns the merged chain's counts, aligned with Thresholds.
func (m *SweepMux) Counts() []uint64 { return m.counts[:len(m.thresholds)] }

// Top returns the all-active count when AddTop rode the last sweep.
func (m *SweepMux) Top() (uint64, bool) { return m.topCount, m.swept && m.top }

// Sum returns the active-item sum when AddSum rode the last sweep.
func (m *SweepMux) Sum() (uint64, bool) { return m.sum, m.swept && m.withSum }

// CountAt demultiplexes one threshold's count out of the merged chain.
// ok is false when t was not probed this sweep.
func (m *SweepMux) CountAt(t uint64) (uint64, bool) {
	i := sort.Search(len(m.thresholds), func(i int) bool { return m.thresholds[i] >= t })
	if i >= len(m.thresholds) || m.thresholds[i] != t {
		return 0, false
	}
	return m.counts[i], true
}
