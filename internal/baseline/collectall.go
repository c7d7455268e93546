// Package baseline implements the linear-cost reference points the paper
// improves on: TAG [9] classifies MEDIAN as a "holistic" aggregate whose
// in-network state cannot be compressed, so the straightforward protocol
// ships every raw item to the root. That is the Θ(N·log X)-bits-per-node
// baseline every experiment compares against (and the regime the paper's
// Section 1 says must be avoided).
package baseline

import (
	"fmt"
	"sort"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// Result reports a collect-all query.
type Result struct {
	// Value is the exact answer computed at the root.
	Value uint64
	// Items is the number of items collected.
	Items int
	// Comm is the communication accrued.
	Comm netsim.Delta
}

// multisetCombiner ships every active item's value upward. Items are
// delta-gamma coded in sorted order, the best honest encoding for a raw
// multiset (still Θ(count·log X) near the root).
type multisetCombiner struct{}

var _ spantree.Combiner = multisetCombiner{}

func (multisetCombiner) Local(n *netsim.Node) any {
	values := make([]uint64, 0, len(n.Items))
	for _, it := range n.Items {
		if it.Active {
			values = append(values, it.Cur)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	return values
}

func (multisetCombiner) Merge(acc, child any) any {
	a, b := acc.([]uint64), child.([]uint64)
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func (multisetCombiner) AppendPartial(w *bitio.Writer, p any) {
	values := p.([]uint64)
	w.WriteGamma(uint64(len(values)))
	var prev uint64
	for _, v := range values {
		w.WriteGamma(v - prev)
		prev = v
	}
}

func (multisetCombiner) Decode(pl wire.Payload) (any, error) {
	r := pl.Reader()
	count, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("baseline: decoding count: %w", err)
	}
	values := make([]uint64, count)
	var prev uint64
	for i := range values {
		d, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("baseline: decoding item %d: %w", i, err)
		}
		prev += d
		values[i] = prev
	}
	return values, nil
}

// CollectAllMedian ships the full multiset to the root and returns the
// exact median.
func CollectAllMedian(ops spantree.Ops) (Result, error) {
	res, sorted, err := collectAll(ops)
	if err != nil {
		return Result{}, err
	}
	res.Value = core.TrueMedian(sorted)
	return res, nil
}

// CollectAllOrderStatistic ships the full multiset and selects rank k
// (clamped to [1, N]).
func CollectAllOrderStatistic(ops spantree.Ops, k int) (Result, error) {
	res, sorted, err := collectAll(ops)
	if err != nil {
		return Result{}, err
	}
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	res.Value = core.TrueOrderStatistic(sorted, k)
	return res, nil
}

// CollectAllDistinct ships the full multiset and counts distinct values
// exactly at the root — the simplest correct protocol for TAG's "unique"
// aggregate, whose linear cost Theorem 5.1 proves unavoidable. The distinct
// count is returned in Result.Value.
func CollectAllDistinct(ops spantree.Ops) (Result, error) {
	res, sorted, err := collectAll(ops)
	if err != nil {
		return Result{}, err
	}
	distinct := uint64(0)
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			distinct++
		}
	}
	res.Value = distinct
	return res, nil
}

func collectAll(ops spantree.Ops) (Result, []uint64, error) {
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	out, err := ops.Convergecast(multisetCombiner{})
	if err != nil {
		return Result{}, nil, fmt.Errorf("baseline: convergecast: %w", err)
	}
	values := out.([]uint64)
	if len(values) == 0 {
		return Result{}, nil, fmt.Errorf("baseline: no active items")
	}
	return Result{
		Items: len(values),
		Comm:  nw.Meter.Since(before),
	}, values, nil
}
