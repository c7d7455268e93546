// Package distinct implements the COUNT DISTINCT aggregate of Section 5:
// an exact protocol (set-union convergecast — provably Ω(n) bits by
// Theorem 5.1), the O(log log n)-per-node approximate protocol (a LogLog
// sketch over item *values*, so duplicates collide by construction), and
// the Set Disjointness reduction harness that demonstrates the lower bound
// concretely.
package distinct

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// ExactResult reports an exact COUNT DISTINCT run.
type ExactResult struct {
	// Distinct is the exact number of distinct values.
	Distinct uint64
	// Comm is the communication accrued.
	Comm netsim.Delta
}

// setCombiner ships the sorted set of distinct values seen in the subtree —
// the minimal exact state: TAG [9] calls such aggregates "unique", with
// state proportional to the number of distinct items.
type setCombiner struct{}

var _ spantree.Combiner = setCombiner{}

func (setCombiner) Local(n *netsim.Node) any {
	set := make([]uint64, 0, len(n.Items))
	for _, it := range n.Items {
		if it.Active {
			set = insertUnique(set, it.Cur)
		}
	}
	return set
}

func insertUnique(set []uint64, v uint64) []uint64 {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(set) && set[lo] == v {
		return set
	}
	set = append(set, 0)
	copy(set[lo+1:], set[lo:])
	set[lo] = v
	return set
}

func (setCombiner) Merge(acc, child any) any {
	a, b := acc.([]uint64), child.([]uint64)
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func (setCombiner) AppendPartial(w *bitio.Writer, p any) {
	set := p.([]uint64)
	w.WriteGamma(uint64(len(set)))
	var prev uint64
	for _, v := range set {
		w.WriteGamma(v - prev) // strictly increasing: deltas >= 1 except the first
		prev = v
	}
}

func (setCombiner) Decode(pl wire.Payload) (any, error) {
	r := pl.Reader()
	count, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("distinct: decoding count: %w", err)
	}
	set := make([]uint64, count)
	var prev uint64
	for i := range set {
		d, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("distinct: decoding value %d: %w", i, err)
		}
		prev += d
		set[i] = prev
	}
	return set, nil
}

// Exact runs the exact COUNT DISTINCT protocol.
func Exact(ops spantree.Ops) (ExactResult, error) {
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	out, err := ops.Convergecast(setCombiner{})
	if err != nil {
		return ExactResult{}, fmt.Errorf("distinct: convergecast: %w", err)
	}
	return ExactResult{
		Distinct: uint64(len(out.([]uint64))),
		Comm:     nw.Meter.Since(before),
	}, nil
}

// ApxResult reports an approximate COUNT DISTINCT run.
type ApxResult struct {
	// Estimate is the sketch's distinct-count estimate.
	Estimate float64
	// Sigma is the estimator's relative standard deviation (≈ error bar).
	Sigma float64
	// Comm is the communication accrued.
	Comm netsim.Delta
}

// valueSketch hashes item *values* (not item identities): equal values
// collide in the sketch, which is precisely what turns a cardinality
// sketch into a distinct counter ([1],[3] — "using the hash value of an
// item as the source of random bits").
type valueSketch struct {
	p      int
	hasher hashing.Hasher
	est    loglog.Estimator
}

var _ spantree.Combiner = valueSketch{}

func (c valueSketch) Local(n *netsim.Node) any {
	sk := loglog.New(c.p)
	for _, it := range n.Items {
		if it.Active {
			sk.AddKey(c.hasher, it.Cur)
		}
	}
	return sk
}

func (c valueSketch) Merge(acc, child any) any {
	a := acc.(*loglog.Sketch)
	a.Merge(child.(*loglog.Sketch))
	return a
}

func (c valueSketch) AppendPartial(w *bitio.Writer, p any) {
	p.(*loglog.Sketch).AppendTo(w)
}

func (c valueSketch) Decode(pl wire.Payload) (any, error) {
	sk, err := loglog.DecodeSketch(pl.Reader(), c.p)
	if err != nil {
		return nil, fmt.Errorf("distinct: sketch: %w", err)
	}
	return sk, nil
}

// Approximate runs the sketch-based COUNT DISTINCT with m = 2^p registers
// using the given estimator; per-node cost is O(m log log n) bits — the
// Section 5 remark's parameterization (k^2·log log n bits for relative
// error 3.15/k with the geometric-mean estimator over k^2 buckets).
func Approximate(ops spantree.Ops, p int, est loglog.Estimator, seed uint64) (ApxResult, error) {
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	c := valueSketch{p: p, hasher: hashing.New(seed ^ 0xd151), est: est}
	out, err := ops.Convergecast(c)
	if err != nil {
		return ApxResult{}, fmt.Errorf("distinct: convergecast: %w", err)
	}
	return ApxResult{
		Estimate: loglog.EstimateWith(out.(*loglog.Sketch), est),
		Sigma:    loglog.SigmaOf(est, 1<<p),
		Comm:     nw.Meter.Since(before),
	}, nil
}
