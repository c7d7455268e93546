package agg

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// The sketch oracle. spantree.FoldSketches replaced two APX COUNT paths —
// the honest per-edge convergecast of the boxed keyedSketch, and the fast
// path that folded the view flat and charged it arithmetically — and
// distinct's boxed valueSketch. They live on below verbatim, but for two
// substitutions: the key table is the oracle's own (oracleNet.keyBase,
// built as the Net once built it), and the fast path's Meter.ChargeN is
// Meter.ChargeEdgeSeq with the same totals.
//
// The honest path is the reference everywhere. The old fast path is a
// second reference on every plan without drop/dup; under drop/dup it is
// the bug the fold fixes: it counted every node and charged every edge
// once as if every message arrived.

// oracleNet is a Net running the old APX COUNT paths.
type oracleNet struct {
	*Net
	// honestSketches forces APX COUNT instances through real per-edge
	// convergecasts.
	honestSketches bool
	// keyBase[u] is the global index of node u's first item.
	keyBase []uint64
}

// ApxCountRep implements core.Net: REP COUNTP's body — one broadcast of
// (predicate, repetition count), then r independent APX COUNT sketch
// convergecasts. Instance seeds advance a persistent counter known to root
// and nodes alike from the protocol transcript, so they cost no wire bits.
func (n *oracleNet) ApxCountRep(d core.Domain, pred wire.Pred, r int) []float64 {
	if n.keyBase == nil {
		n.keyBase = make([]uint64, n.nw.N())
		var base uint64
		for i, nd := range n.nw.Nodes {
			n.keyBase[i] = base
			base += uint64(len(nd.Items))
		}
	}
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opApxCount, d)
	pred.AppendTo(w, vw)
	w.WriteGamma(uint64(r))
	n.ops.Broadcast(wire.Borrowed(w), nil)

	out := make([]float64, r)
	if n.honestSketches {
		for i := 0; i < r; i++ {
			n.instance++
			comb := keyedSketch{net: n, domain: d, pred: pred, instance: n.instance}
			res, err := n.ops.Convergecast(comb)
			if err != nil {
				panic(fmt.Sprintf("agg: sketch convergecast: %v", err))
			}
			out[i] = loglog.EstimateWith(res.(*loglog.Sketch), n.est)
		}
		return out
	}
	// Charge all r convergecasts in one pass over the edges of the view the
	// engine sweeps: sketch payloads are content-independent
	// (m·RegisterBits bits on every tree edge).
	view := n.view()
	bits := (1 << n.sketchP) * loglog.RegisterBits
	for _, u := range view.Order {
		if u != view.Root {
			n.nw.Meter.ChargeEdgeSeq(u, view.Parent[u], int64(bits)*int64(r), int64(r))
		}
	}
	sk := loglog.New(n.sketchP) // one register array, reset per instance
	for i := 0; i < r; i++ {
		n.instance++
		out[i] = n.fastSketchInstance(sk, view, d, pred, n.instance)
	}
	return out
}

// view returns the tree view the Net's engine sweeps: a fast engine's own —
// the full tree, a healed one or a sector — or else the network's tree.
func (n *oracleNet) view() *spantree.TreeView {
	if e, ok := n.ops.(interface{ View() *spantree.TreeView }); ok {
		return e.View()
	}
	return spantree.FullView(n.nw.Tree)
}

// fastSketchInstance computes one APX COUNT estimate in sk by folding the
// matching items of every node in view directly — valid because max-merge
// over a tree equals the flat fold. Communication is charged by the caller.
func (n *oracleNet) fastSketchInstance(sk *loglog.Sketch, view *spantree.TreeView, d core.Domain, pred wire.Pred, instance uint64) float64 {
	sk.Reset()
	h := n.instanceHasher(instance)
	for _, u := range view.Order {
		nd, base := n.nw.Nodes[u], n.keyBase[u]
		for idx, it := range nd.Items {
			if it.Active && pred.Eval(DomainValue(it, d)) {
				sk.AddKey(h, base+uint64(idx))
			}
		}
	}
	return loglog.EstimateWith(sk, n.est)
}

// keyedSketch runs one APX COUNT instance (Fact 2.2): every node folds its
// matching items' hashed keys into a LogLog sketch; messages carry the m
// fixed-width registers — O(m · log log N) bits.
type keyedSketch struct {
	net      *oracleNet
	domain   core.Domain
	pred     wire.Pred
	instance uint64
}

var _ spantree.Combiner = keyedSketch{}

func (c keyedSketch) Local(n *netsim.Node) any {
	sk := loglog.New(c.net.sketchP)
	h := c.net.instanceHasher(c.instance)
	base := c.net.keyBase[n.ID]
	for idx, it := range n.Items {
		if it.Active && c.pred.Eval(DomainValue(it, c.domain)) {
			sk.AddKey(h, base+uint64(idx))
		}
	}
	return sk
}

func (c keyedSketch) Merge(acc, child any) any {
	a := acc.(*loglog.Sketch)
	a.Merge(child.(*loglog.Sketch))
	return a
}

func (c keyedSketch) AppendPartial(w *bitio.Writer, p any) {
	p.(*loglog.Sketch).AppendTo(w)
}

func (c keyedSketch) Decode(pl wire.Payload) (any, error) {
	sk, err := loglog.DecodeSketch(pl.Reader(), c.net.sketchP)
	if err != nil {
		return nil, fmt.Errorf("agg: sketch: %w", err)
	}
	return sk, nil
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

// oracleApproximate is distinct.Approximate on the boxed valueSketch.
func oracleApproximate(ops spantree.Ops, p int, est loglog.Estimator, seed uint64) (distinct.ApxResult, error) {
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	c := valueSketch{p: p, hasher: hashing.New(seed ^ 0xd151), est: est}
	out, err := ops.Convergecast(c)
	if err != nil {
		return distinct.ApxResult{}, fmt.Errorf("distinct: convergecast: %w", err)
	}
	return distinct.ApxResult{
		Estimate: loglog.EstimateWith(out.(*loglog.Sketch), est),
		Sigma:    loglog.SigmaOf(est, 1<<p),
		Comm:     nw.Meter.Since(before),
	}, nil
}

// sketchProtocol is one sketch protocol of the oracle: it runs on a Net
// and returns what it answered.
type sketchProtocol struct {
	name string
	// run runs the protocol on the fold (oracle nil) or on an old path.
	run func(t *testing.T, n *Net, oracle *oracleNet) []float64
	// fastOracle: the protocol had an old fast path to compare with.
	fastOracle bool
}

func sketchProtocols() []sketchProtocol {
	var out []sketchProtocol
	for _, r := range []int{1, 3} {
		for _, pc := range []struct {
			name string
			pred wire.Pred
		}{{"true", wire.True()}, {"less", wire.Less(testMaxX / 3)}} {
			r, pred := r, pc.pred
			out = append(out, sketchProtocol{
				name:       fmt.Sprintf("apxcount/r=%d/%s", r, pc.name),
				fastOracle: true,
				run: func(t *testing.T, n *Net, oracle *oracleNet) []float64 {
					// Twice, so the instance counter carries across calls.
					if oracle != nil {
						return append(oracle.ApxCountRep(core.Linear, pred, r), oracle.ApxCountRep(core.Linear, pred, r)...)
					}
					return append(n.ApxCountRep(core.Linear, pred, r), n.ApxCountRep(core.Linear, pred, r)...)
				},
			})
		}
	}
	for _, p := range []int{6, 10} {
		p := p
		out = append(out, sketchProtocol{
			name: fmt.Sprintf("distinct/p=%d", p),
			run: func(t *testing.T, n *Net, oracle *oracleNet) []float64 {
				approx := distinct.Approximate
				if oracle != nil {
					approx = oracleApproximate
				}
				res, err := approx(n.Ops(), p, loglog.EstHLL, 7)
				if err != nil {
					t.Fatal(err)
				}
				d := res.Comm
				return []float64{res.Estimate, res.Sigma, float64(d.MaxPerNode), float64(d.TotalBits), float64(d.Messages)}
			},
		})
	}
	return out
}

// sketchDeployments are the oracle's input axis: a one-item grid, where a
// node's ID is its item's key, and a multi-item grid, where keys come from
// the layout's base table.
func sketchDeployments() map[string][][]uint64 {
	g := topology.Grid(16, 16)
	single := make([][]uint64, g.N())
	for i, v := range workload.Generate(workload.Zipf, g.N(), testMaxX, 5) {
		single[i] = []uint64{v}
	}
	rng := rand.New(rand.NewPCG(5, 5))
	multi := make([][]uint64, g.N())
	for i := range multi {
		for j := rng.IntN(4); j > 0; j-- {
			multi[i] = append(multi[i], rng.Uint64N(testMaxX+1))
		}
	}
	return map[string][][]uint64{"single": single, "multi": multi}
}

// TestSketchFoldMatchesOracle holds spantree.FoldSketches, through
// ApxCountRep and distinct.Approximate, to the old honest path — estimates
// and every node's sent, received and messages — across views, fault plans
// and engines, and to the old fast path on every plan without drop/dup. Run
// with -race.
func TestSketchFoldMatchesOracle(t *testing.T) {
	g := topology.Grid(16, 16)
	views := []struct {
		name       string
		spec       faults.Spec
		quarantine []topology.NodeID
	}{
		{"full", faults.Spec{}, nil},
		{"healed", faults.Spec{Crash: 0.2}, nil},
		{"quarantined", faults.Spec{Crash: 0.05}, []topology.NodeID{17, 40, 130, 201}},
	}
	plans := []struct {
		name string
		spec faults.Spec
	}{
		{"reliable", faults.Spec{}},
		{"drop", faults.Spec{Drop: 0.2}},
		{"dup", faults.Spec{Dup: 0.3}},
		{"dropdup", faults.Spec{Drop: 0.15, Dup: 0.15}},
		{"byz", faults.Spec{Byz: 0.1}},
	}
	engines := []string{"fast/1", "fast/3", "goroutine"}
	for dname, items := range sketchDeployments() {
		for _, view := range views {
			for _, plan := range plans {
				spec := plan.spec
				spec.Crash = view.spec.Crash
				for _, engine := range engines {
					if engine == "goroutine" && (view.name != "full" || spec.MessageLevel()) {
						continue // the goroutine engine sweeps the full tree and never consults the plan
					}
					build := func(t *testing.T) *Net {
						nw := netsim.NewFromTree(g, netsim.BuildTree(g, 0, netsim.DefaultMaxChildren), items, testMaxX, 99)
						var ops spantree.Ops
						if engine == "goroutine" {
							ops = spantree.NewGoroutine(nw)
						} else {
							if spec.Active() || view.quarantine != nil {
								nw.Faults = faults.New(spec, nw.N(), nw.Root(), 3)
								for _, u := range view.quarantine {
									nw.Faults.Quarantine(u)
								}
							}
							fe, _, err := spantree.NewFastHealed(nw)
							if err != nil {
								t.Fatal(err)
							}
							if view.name != "full" && fe.View().N() == nw.N() {
								t.Fatal("the view excludes no node")
							}
							fe.SetWorkers(map[string]int{"fast/1": 1, "fast/3": 3}[engine])
							ops = fe
						}
						return NewNet(ops, WithSketchP(6)) // small sketches keep the boxed oracle quick under -race
					}
					for _, proto := range sketchProtocols() {
						where := fmt.Sprintf("%s/%s/%s/%s/%s", dname, view.name, plan.name, engine, proto.name)
						t.Run(where, func(t *testing.T) {
							fold := build(t)
							got := proto.run(t, fold, nil)
							honest := &oracleNet{Net: build(t), honestSketches: true}
							requireSameSketchRun(t, "honest path", fold, got, honest.Net, proto.run(t, honest.Net, honest))
							if proto.fastOracle && !spec.MessageLevel() {
								fast := &oracleNet{Net: build(t)}
								requireSameSketchRun(t, "old fast path", fold, got, fast.Net, proto.run(t, fast.Net, fast))
							}
						})
					}
				}
			}
		}
	}
}

// requireSameSketchRun asserts two runs answered alike and charged every
// node alike.
func requireSameSketchRun(t *testing.T, ref string, n *Net, got []float64, refNet *Net, want []float64) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers %v, %s %v", got, ref, want)
	}
	m, rm := n.Network().Meter, refNet.Network().Meter
	for u := 0; u < m.N(); u++ {
		id := topology.NodeID(u)
		if m.SentBitsOf(id) != rm.SentBitsOf(id) || m.RecvBitsOf(id) != rm.RecvBitsOf(id) || m.MessagesOf(id) != rm.MessagesOf(id) {
			t.Fatalf("node %d sent/recv/msgs %d/%d/%d, %s %d/%d/%d", u,
				m.SentBitsOf(id), m.RecvBitsOf(id), m.MessagesOf(id), ref,
				rm.SentBitsOf(id), rm.RecvBitsOf(id), rm.MessagesOf(id))
		}
	}
}
