package engine

import (
	"fmt"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// honestSketchNet is an agg.Net whose APX COUNT instances are real per-edge
// convergecasts of encoded LogLog sketches on the boxed kernel, each edge
// passing the fault plan's drop/dup decision: the engine-level reference
// for spantree.FoldSketches under message faults. Its broadcast is a
// payload as long as agg's REP COUNTP header, which is all the meter sees.
type honestSketchNet struct {
	*agg.Net
	p        int
	instance uint64
}

func (n *honestSketchNet) ApxCountRep(d core.Domain, pred wire.Pred, r int) []float64 {
	w := bitio.NewWriter(64)
	w.WriteBits(0, 4+pred.EncodedBits(n.ValueWidth(d))) // opcode, domain, predicate
	w.WriteGamma(uint64(r))
	n.Ops().Broadcast(wire.Borrowed(w), nil)
	out := make([]float64, r)
	for i := range out {
		n.instance++
		res, err := n.Ops().Convergecast(honestSketch{n: n, d: d, pred: pred, h: hashing.New(hashing.Mix64(n.Network().Seed()) ^ n.instance)})
		if err != nil {
			panic(err)
		}
		out[i] = loglog.EstimateWith(res.(*loglog.Sketch), loglog.EstHLL)
	}
	return out
}

// honestSketch is one APX COUNT instance as a boxed combiner.
type honestSketch struct {
	n    *honestSketchNet
	d    core.Domain
	pred wire.Pred
	h    hashing.Hasher
}

func (c honestSketch) Local(nd *netsim.Node) any {
	sk := loglog.New(c.n.p)
	for idx, it := range nd.Items {
		if it.Active && c.pred.Eval(agg.DomainValue(it, c.d)) {
			sk.AddKey(c.h, c.n.Network().ItemKey(nd.ID, idx))
		}
	}
	return sk
}

func (c honestSketch) Merge(acc, child any) any {
	acc.(*loglog.Sketch).Merge(child.(*loglog.Sketch))
	return acc
}

func (c honestSketch) AppendPartial(w *bitio.Writer, p any) { p.(*loglog.Sketch).AppendTo(w) }

func (c honestSketch) Decode(pl wire.Payload) (any, error) {
	return loglog.DecodeSketch(pl.Reader(), c.n.p)
}

// requireHonestSketchRun runs q through the engine on one fork of spec and
// through honestSketchNet on another, and requires the same value and
// every node's sent, received and messages. It returns the engine's run.
func requireHonestSketchRun(t *testing.T, spec Spec, q Query) (Result, *netsim.Network) {
	t.Helper()
	s := NewSession()
	q = q.WithDefaults()
	nw, err := s.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := executeSerial(nw, spec, q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fe := spantree.NewFast(ref)
	honest := &honestSketchNet{Net: agg.NewNet(fe, agg.WithSketchP(q.SketchP)), p: q.SketchP}
	var want float64
	switch q.Kind {
	case KindApxCount:
		want = honest.ApxCountRep(core.Linear, wire.True(), 1)[0]
	default:
		ans, err := soloOn(ref, spec, q, fe, honest)
		if err != nil {
			t.Fatal(err)
		}
		want = ans.Value
	}
	where := fmt.Sprintf("%s under %v", q.Kind, spec.Faults)
	if got.Value != want {
		t.Errorf("%s: engine answers %g, honest reference %g", where, got.Value, want)
	}
	for u := 0; u < nw.N(); u++ {
		id := topology.NodeID(u)
		if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) || nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
			nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
			t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, honest reference %d/%d/%d", where, u,
				nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
				ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
		}
	}
	return got, nw
}
