package gk

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// ProtocolResult reports a tree-aggregated quantile query.
type ProtocolResult struct {
	// Value is the answer returned by the root's summary.
	Value uint64
	// N is the total item count accumulated by the summary.
	N uint64
	// MaxGap bounds the answer's rank error.
	MaxGap uint64
	// Comm is the communication accrued by the query.
	Comm netsim.Delta
}

// summaryCombiner merges child summaries into the node's own and prunes to
// the configured size before forwarding — the one-pass, summary-shipping
// design of Greenwald–Khanna [4], in contrast to the paper's multi-pass
// counting design.
type summaryCombiner struct {
	size       int
	valueWidth int
}

var _ spantree.Combiner = summaryCombiner{}

func (c summaryCombiner) Local(n *netsim.Node) any {
	values := make([]uint64, 0, len(n.Items))
	for _, it := range n.Items {
		if it.Active {
			values = append(values, it.Cur)
		}
	}
	s := FromValues(values)
	s.Prune(c.size)
	return s
}

func (c summaryCombiner) Merge(acc, child any) any {
	m := Merge(acc.(*Summary), child.(*Summary))
	m.Prune(c.size)
	return m
}

func (c summaryCombiner) AppendPartial(w *bitio.Writer, p any) {
	s := p.(*Summary)
	w.WriteGamma(s.N)
	w.WriteGamma(uint64(len(s.Entries)))
	var prevV, prevRMin uint64
	for _, e := range s.Entries {
		w.WriteGamma(e.V - prevV) // values ascending: delta code
		w.WriteGamma(e.RMin - prevRMin)
		w.WriteGamma(e.RMax - e.RMin)
		prevV, prevRMin = e.V, e.RMin
	}
}

func (c summaryCombiner) Decode(pl wire.Payload) (any, error) {
	r := pl.Reader()
	n, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("gk: decoding N: %w", err)
	}
	count, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("gk: decoding entry count: %w", err)
	}
	s := &Summary{N: n, Entries: make([]Entry, count)}
	var prevV, prevRMin uint64
	for i := range s.Entries {
		dv, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("gk: decoding entry %d value: %w", i, err)
		}
		drmin, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("gk: decoding entry %d rmin: %w", i, err)
		}
		width, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("gk: decoding entry %d width: %w", i, err)
		}
		prevV += dv
		prevRMin += drmin
		s.Entries[i] = Entry{V: prevV, RMin: prevRMin, RMax: prevRMin + width}
	}
	return s, nil
}

// QuantileProtocol runs a one-pass summary convergecast and queries the
// given rank (1-based; 0 means median) at the root. summarySize bounds the
// per-message entry count — the knob trading bits for rank error.
func QuantileProtocol(ops spantree.Ops, summarySize int, rank uint64) (ProtocolResult, error) {
	if summarySize < 2 {
		return ProtocolResult{}, fmt.Errorf("gk: summary size %d < 2", summarySize)
	}
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	out, err := ops.Convergecast(summaryCombiner{size: summarySize, valueWidth: nw.ValueWidth})
	if err != nil {
		return ProtocolResult{}, fmt.Errorf("gk: convergecast: %w", err)
	}
	s := out.(*Summary)
	if s.N == 0 {
		return ProtocolResult{}, fmt.Errorf("gk: no active items")
	}
	if rank == 0 {
		rank = (s.N + 1) / 2
	}
	v, err := s.Query(rank)
	if err != nil {
		return ProtocolResult{}, err
	}
	return ProtocolResult{Value: v, N: s.N, MaxGap: s.MaxGap(), Comm: nw.Meter.Since(before)}, nil
}

// MedianProtocol runs QuantileProtocol at the median rank.
func MedianProtocol(ops spantree.Ops, summarySize int) (ProtocolResult, error) {
	return QuantileProtocol(ops, summarySize, 0)
}
