// Package sampling implements the uniform-sampling median of Nath et al.
// [10]: an order- and duplicate-insensitive bottom-k synopsis selects k
// near-uniform item samples in one convergecast, and the root answers
// quantile queries from the sample. Per-node communication is
// Θ(k·(log N + log X)) bits — the Ω(log N)-per-node regime the paper
// contrasts its polyloglog APX MEDIAN2 against.
package sampling

import (
	"fmt"
	"sort"

	"sensoragg/internal/bitio"
	"sensoragg/internal/hashing"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// hashBits is the encoded width of a sample's priority. 32 bits keeps
// collision probability negligible at simulator scales while staying
// O(log N).
const hashBits = 32

// sample is one bottom-k element: the item's hash priority and its value.
type sample struct {
	prio  uint32
	value uint64
}

// synopsis is a bottom-k set ordered by priority. Merging keeps the k
// smallest priorities; duplicates (same priority — same item) collapse,
// which is what makes the synopsis ODI.
type synopsis struct {
	k       int
	samples []sample // sorted by prio ascending, unique
}

func (s *synopsis) add(p uint32, v uint64) {
	idx := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].prio >= p })
	if idx < len(s.samples) && s.samples[idx].prio == p {
		return // duplicate item
	}
	if len(s.samples) == s.k {
		if idx == s.k {
			return
		}
		s.samples = s.samples[:s.k-1]
	}
	s.samples = append(s.samples, sample{})
	copy(s.samples[idx+1:], s.samples[idx:])
	s.samples[idx] = sample{prio: p, value: v}
}

func (s *synopsis) merge(other *synopsis) {
	for _, sm := range other.samples {
		s.add(sm.prio, sm.value)
	}
}

// Result reports a sampling median query.
type Result struct {
	// Value is the sample median.
	Value uint64
	// SampleSize is the number of samples the root received.
	SampleSize int
	// Comm is the communication accrued.
	Comm netsim.Delta
}

// combiner ships bottom-k synopses up the tree.
type combiner struct {
	k          int
	valueWidth int
	hasher     hashing.Hasher
	// nw supplies the item keys (netsim.Network.ItemKey) the priorities
	// hash.
	nw *netsim.Network
}

var _ spantree.Combiner = combiner{}

func (c combiner) Local(n *netsim.Node) any {
	syn := &synopsis{k: c.k}
	for idx, it := range n.Items {
		if !it.Active {
			continue
		}
		prio := uint32(c.hasher.Hash(c.nw.ItemKey(n.ID, idx)) >> 32)
		syn.add(prio, it.Cur)
	}
	return syn
}

func (c combiner) Merge(acc, child any) any {
	a := acc.(*synopsis)
	a.merge(child.(*synopsis))
	return a
}

func (c combiner) AppendPartial(w *bitio.Writer, p any) {
	syn := p.(*synopsis)
	w.WriteGamma(uint64(len(syn.samples)))
	for _, sm := range syn.samples {
		w.WriteBits(uint64(sm.prio), hashBits)
		w.WriteBits(sm.value, c.valueWidth)
	}
}

func (c combiner) Decode(pl wire.Payload) (any, error) {
	r := pl.Reader()
	count, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("sampling: decoding count: %w", err)
	}
	syn := &synopsis{k: c.k, samples: make([]sample, 0, count)}
	for i := uint64(0); i < count; i++ {
		prio, err := r.ReadBits(hashBits)
		if err != nil {
			return nil, fmt.Errorf("sampling: decoding prio %d: %w", i, err)
		}
		v, err := r.ReadBits(c.valueWidth)
		if err != nil {
			return nil, fmt.Errorf("sampling: decoding value %d: %w", i, err)
		}
		syn.samples = append(syn.samples, sample{prio: uint32(prio), value: v})
	}
	return syn, nil
}

// Median runs the bottom-k sampling protocol with sample budget k and
// returns the sample median. seed derives the shared hash function the
// whole network uses for priorities.
func Median(ops spantree.Ops, k int, seed uint64) (Result, error) {
	return Quantile(ops, k, seed, 0.5)
}

// Quantile answers an arbitrary φ-quantile from the same synopsis.
func Quantile(ops spantree.Ops, k int, seed uint64, phi float64) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("sampling: k must be >= 1, got %d", k)
	}
	if phi < 0 || phi > 1 {
		return Result{}, fmt.Errorf("sampling: phi %g out of [0,1]", phi)
	}
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	c := combiner{
		k:          k,
		valueWidth: nw.ValueWidth,
		hasher:     hashing.New(seed ^ 0x5a3c),
		nw:         nw,
	}
	out, err := ops.Convergecast(c)
	if err != nil {
		return Result{}, fmt.Errorf("sampling: convergecast: %w", err)
	}
	syn := out.(*synopsis)
	if len(syn.samples) == 0 {
		return Result{}, fmt.Errorf("sampling: no active items")
	}
	values := make([]uint64, len(syn.samples))
	for i, sm := range syn.samples {
		values[i] = sm.value
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	idx := int(phi * float64(len(values)-1))
	return Result{
		Value:      values[idx],
		SampleSize: len(values),
		Comm:       nw.Meter.Since(before),
	}, nil
}
