package agg

// Reference oracle for the vector combiners: the boxed Local/Merge/Encode/
// Decode twin each of them carried beside its vector face, kept verbatim
// apart from receivers — each twin embeds (or points at) the production
// combiner whose fields it reads — and Encode, which only wrapped
// AppendPartial in a fresh payload, folded into AppendPartial. genericOps
// runs every vector convergecast of a Net through these twins on the fast
// engine's boxed kernel, edge by edge — each partial encoded, charged per
// delivery, decoded and merged — so the vector kernel's ring, arithmetic
// charging and FoldVec are held to a path that shares none of them.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// --- MIN/MAX ---

// minMaxPartial is the convergecast state for the combined MIN/MAX
// protocol.
type minMaxPartial struct {
	has    bool
	lo, hi uint64
}

type boxedMinMax struct{ minMaxCombiner }

func (c boxedMinMax) local(n *netsim.Node) minMaxPartial {
	var p minMaxPartial
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := DomainValue(it, c.domain)
		if !p.has {
			p = minMaxPartial{has: true, lo: v, hi: v}
			continue
		}
		if v < p.lo {
			p.lo = v
		}
		if v > p.hi {
			p.hi = v
		}
	}
	return p
}

func (c boxedMinMax) Local(n *netsim.Node) any { return c.local(n) }

func (p minMaxPartial) vec(dst []uint64) {
	dst[0], dst[1] = 1, 0
	if p.has {
		dst[0], dst[1] = p.lo, p.hi
	}
}

func (c boxedMinMax) Merge(acc, child any) any {
	a, b := acc.(minMaxPartial), child.(minMaxPartial)
	if !b.has {
		return a
	}
	if !a.has {
		return b
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

// AppendPartial writes the presence bit and, for a non-empty partial, the
// two fixed-width extrema.
func (c boxedMinMax) AppendPartial(w *bitio.Writer, p any) {
	mm := p.(minMaxPartial)
	w.WriteBool(mm.has)
	if mm.has {
		w.WriteBits(mm.lo, c.width)
		w.WriteBits(mm.hi, c.width)
	}
}

func (c boxedMinMax) Decode(pl wire.Payload) (any, error) {
	p, err := c.decode(pl)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (c boxedMinMax) decode(pl wire.Payload) (minMaxPartial, error) {
	r := pl.Reader()
	has, err := r.ReadBool()
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax presence: %w", err)
	}
	if !has {
		return minMaxPartial{}, nil
	}
	lo, err := r.ReadBits(c.width)
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax lo: %w", err)
	}
	hi, err := r.ReadBits(c.width)
	if err != nil {
		return minMaxPartial{}, fmt.Errorf("agg: minmax hi: %w", err)
	}
	return minMaxPartial{has: true, lo: lo, hi: hi}, nil
}

// --- COUNT and SUM ---

// boxedGamma is gammaWord's boxed face: a boxed uint64.
type boxedGamma struct{}

func (boxedGamma) Merge(acc, child any) any { return acc.(uint64) + child.(uint64) }

func (boxedGamma) AppendPartial(w *bitio.Writer, p any) { w.WriteGamma(p.(uint64)) }

func (g boxedGamma) Decode(pl wire.Payload) (any, error) {
	var p [1]uint64
	if err := (gammaWord{}).DecodeVec(pl, p[:]); err != nil {
		return nil, err
	}
	return p[0], nil
}

type boxedCount struct {
	boxedGamma
	c *countCombiner
}

func (b boxedCount) Local(n *netsim.Node) any { return b.c.local(n) }

type boxedSum struct {
	boxedGamma
	c *sumCombiner
}

func (b boxedSum) Local(n *netsim.Node) any { return b.c.local(n) }

// --- CountVec and the fused tuple: the copying codec path ---

type boxedCountVec struct{ c *countVecCombiner }

func (b boxedCountVec) Local(n *netsim.Node) any {
	dst := make([]uint64, b.c.vecWidth())
	b.c.LocalVec(n, dst)
	return dst
}

func (b boxedCountVec) Merge(acc, child any) any {
	a := acc.([]uint64)
	b.c.MergeVec(a, child.([]uint64))
	return a
}

func (b boxedCountVec) AppendPartial(w *bitio.Writer, p any) { b.c.AppendVec(w, p.([]uint64)) }

func (b boxedCountVec) Decode(pl wire.Payload) (any, error) {
	dst := make([]uint64, b.c.vecWidth())
	if err := b.c.DecodeVec(pl, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

type boxedFused struct{ c *fusedCombiner }

func (b boxedFused) Local(n *netsim.Node) any {
	dst := make([]uint64, fusedWidth)
	b.c.LocalVec(n, dst)
	return dst
}

func (b boxedFused) Merge(acc, child any) any {
	a := acc.([]uint64)
	b.c.MergeVec(a, child.([]uint64))
	return a
}

func (b boxedFused) AppendPartial(w *bitio.Writer, p any) { b.c.AppendVec(w, p.([]uint64)) }

func (b boxedFused) Decode(pl wire.Payload) (any, error) {
	dst := make([]uint64, fusedWidth)
	if err := b.c.DecodeVec(pl, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// --- the generic driver ---

// twinOf returns the boxed twin of a vector combiner a Net runs. A test
// combiner with a boxed face of its own (the cumulative-form oracle) is its
// own twin.
func twinOf(vc spantree.VecCombiner) spantree.Combiner {
	switch c := vc.(type) {
	case *minMaxCombiner:
		return boxedMinMax{*c}
	case *countCombiner:
		return boxedCount{c: c}
	case *sumCombiner:
		return boxedSum{c: c}
	case *countVecCombiner:
		return boxedCountVec{c}
	case *fusedCombiner:
		return boxedFused{c}
	case spantree.Combiner:
		return c
	}
	panic(fmt.Sprintf("no boxed twin for %T", vc))
}

// rootVec is the vector form of a twin's root partial.
func rootVec(p any) []uint64 {
	switch p := p.(type) {
	case uint64:
		return []uint64{p}
	case minMaxPartial:
		v := make([]uint64, 2)
		p.vec(v)
		return v
	case []uint64:
		return p
	}
	panic(fmt.Sprintf("no vector form for %T", p))
}

// sent is a twin's partial tagged with the node that computed it.
type sent struct {
	from topology.NodeID
	p    any
}

// liar runs a twin the way the vector kernel treats a Byzantine sender:
// the partial node u sends its parent is corrupted with the plan's next lie
// word for u — in the vector form, by the production CorruptVec — before it
// is encoded. Each non-root node encodes its partial exactly once per
// convergecast on the boxed kernel too, so both paths draw the same words.
type liar struct {
	twin spantree.Combiner
	vc   spantree.VecCombiner
	plan *faults.Plan
}

func (l liar) Local(n *netsim.Node) any { return sent{n.ID, l.twin.Local(n)} }

func (l liar) Merge(acc, child any) any {
	a := acc.(sent)
	a.p = l.twin.Merge(a.p, child)
	return a
}

func (l liar) AppendPartial(w *bitio.Writer, p any) {
	s := p.(sent)
	if l.plan == nil || !l.plan.Byzantine(s.from) {
		l.twin.AppendPartial(w, s.p)
		return
	}
	v := slices.Clone(rootVec(s.p))
	l.vc.CorruptVec(v, l.plan.LieWord(s.from))
	l.vc.AppendVec(w, v)
}

func (l liar) Decode(pl wire.Payload) (any, error) { return l.twin.Decode(pl) }

// genericOps runs every vector convergecast of the Ops it wraps through the
// combiner's boxed twin on the generic path — each edge through
// AppendPartial and Decode — the reference the vector kernel is held to.
type genericOps struct{ spantree.Ops }

func (o genericOps) ConvergecastVec(vc spantree.VecCombiner) ([]uint64, error) {
	out, err := o.Ops.Convergecast(liar{twinOf(vc), vc, o.Network().Faults})
	if err != nil {
		return nil, err
	}
	return rootVec(out.(sent).p), nil
}

// --- the generated identity suite ---

// twinNets builds two indistinguishable networks over g: same items, seeds
// and fault plan, one for the vector kernel and one for the boxed twins.
// Every fifth node holds three readings, so both LocalVec shapes run.
func twinNets(g *topology.Graph, spec faults.Spec, seed uint64) (nw, ref *netsim.Network) {
	mk := func() *netsim.Network {
		items := make([][]uint64, g.N())
		for i := range items {
			items[i] = []uint64{uint64(i*37) % 1000}
			if i%5 == 4 {
				items[i] = append(items[i], uint64(i)%1000, 999-uint64(i)%1000)
			}
		}
		nw := netsim.NewMulti(g, items, 1023, netsim.WithSeed(seed))
		if spec.Active() {
			nw.Faults = faults.New(spec, nw.N(), nw.Root(), seed)
		}
		return nw
	}
	return mk(), mk()
}

// vecQueries drives every vector combiner through one Net — COUNT, SUM,
// linear and log-domain MIN/MAX, nested and general CountVec, CountVecSum
// over both shapes, and the fused tuple — and returns the root values in a
// fixed order.
func vecQueries(n *Net) []any {
	chain := []wire.Pred{wire.Less(100), wire.Less(350), wire.Less(351), wire.Less(900), wire.True()}
	general := []wire.Pred{wire.GreaterEq(700), wire.InRange(100, 400), wire.Less(50)}
	var out []any
	out = append(out, n.Count(core.Linear, wire.Less(500)), n.Sum(core.Linear, wire.True()))
	for _, d := range []core.Domain{core.Linear, core.LogDomain} {
		lo, hi, ok := n.MinMax(d)
		out = append(out, [3]any{lo, hi, ok})
	}
	for _, preds := range [][]wire.Pred{chain[:1], chain[:4], chain, general} {
		out = append(out, n.CountVec(core.Linear, preds, nil))
		counts, sum := n.CountVecSum(core.Linear, preds, nil)
		out = append(out, counts, sum)
	}
	c, s, lo, hi, ok := n.MultiAggregate(core.Linear, wire.Less(800))
	return append(out, [5]any{c, s, lo, hi, ok})
}

// sameMeters fails the test unless the twin networks' per-node counters
// agree.
func sameMeters(t *testing.T, where string, nw, ref *netsim.Network) {
	t.Helper()
	for u := 0; u < nw.N(); u++ {
		id := topology.NodeID(u)
		if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) ||
			nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
			nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
			t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, reference %d/%d/%d", where, u,
				nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
				ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
		}
	}
}

// TestVectorKernelMatchesBoxedTwins holds the vector kernel to the boxed
// twins run edge by edge on the generic path — and, on the reliable full
// tree, to the goroutine engine's AppendVec/DecodeVec round trip: root
// values and every node's sent/recv/msgs, over topology × N × view ×
// combiner × {reliable, drop, dup, byz} × workers.
func TestVectorKernelMatchesBoxedTwins(t *testing.T) {
	plans := []struct {
		name string
		spec faults.Spec
	}{
		{"reliable", faults.Spec{}},
		{"drop", faults.Spec{Drop: 0.15}},
		{"dup", faults.Spec{Dup: 0.15}},
		{"byz", faults.Spec{Byz: 0.1}},
		{"byz+drop+dup", faults.Spec{Byz: 0.1, Drop: 0.08, Dup: 0.08}},
	}
	ops := 0
	for _, n := range []int{7, 64, 400} {
		rows := map[int]int{7: 1, 64: 8, 400: 20}[n]
		for gi, g := range []*topology.Graph{topology.Grid(rows, n/rows), topology.Line(n), topology.Star(n)} {
			for _, plan := range plans {
				for _, view := range []string{"full", "healed", "sector"} {
					for _, workers := range []int{1, 3} {
						where := fmt.Sprintf("%s/%s/%s/workers=%d", g.Name, plan.name, view, workers)
						spec := plan.spec
						if view != "full" {
							spec.Crash, spec.LinkFail = 0.05, 0.05
						}
						nw, ref := twinNets(g, spec, uint64(3+gi))
						engine := func(nw *netsim.Network) *spantree.FastEngine {
							fe := spantree.NewFast(nw)
							if view != "full" {
								hr, err := spantree.Heal(nw)
								if err != nil {
									t.Fatalf("%s: heal: %v", where, err)
								}
								v := hr.View
								if view == "sector" {
									if len(v.Children[v.Root]) == 0 {
										return nil
									}
									v = spantree.SubtreeView(v, v.Children[v.Root][0])
								}
								fe = spantree.NewFastView(nw, v)
							}
							fe.SetWorkers(workers)
							return fe
						}
						fe, refFe := engine(nw), engine(ref)
						if fe == nil {
							continue // the healed root has no child to root a sector at
						}
						got := vecQueries(NewNet(fe))
						want := vecQueries(NewNet(genericOps{refFe}))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: root values\n got %v\nwant %v", where, got, want)
						}
						sameMeters(t, where, nw, ref)
						ops += len(got)
						if plan.spec.Active() || view != "full" {
							continue
						}
						_, goro := twinNets(g, spec, uint64(3+gi))
						if got := vecQueries(NewNet(spantree.NewGoroutine(goro))); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: goroutine engine root values\n got %v\nwant %v", where, got, want)
						}
						sameMeters(t, where+" (goroutine)", nw, goro)
					}
				}
			}
		}
	}
	if ops < 2000 {
		t.Fatalf("matrix too small: %d convergecasts", ops)
	}
}
