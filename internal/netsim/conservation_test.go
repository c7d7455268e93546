package netsim_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// conservationPlans are the fault plans the invariant holds under. Drop is
// not among them: a dropped frame charges its sender and nobody else.
var conservationPlans = []struct {
	name string
	spec faults.Spec
}{
	{"reliable", faults.Spec{}},
	{"crash+linkfail", faults.Spec{Crash: 0.05, LinkFail: 0.05}},
	{"dup", faults.Spec{Dup: 0.2}},
	{"byz", faults.Spec{Byz: 0.1}},
	{"crash+equivocate", faults.Spec{Crash: 0.05, Byz: 0.1, ByzMode: faults.ByzEquivocate}},
}

// genConservationGraph draws a topology and a size from r.
func genConservationGraph(r *rand.Rand) *topology.Graph {
	n := 2 + r.IntN(300)
	switch r.IntN(6) {
	case 0:
		side := 1 + r.IntN(24)
		return topology.Grid(max(2, n/side), side)
	case 1:
		return topology.Line(n)
	case 2:
		return topology.Star(n)
	case 3:
		return topology.Barbell(max(n, 4))
	case 4:
		return topology.DenseGrid(max(1, n/16), 16)
	default:
		return topology.RandomGeometric(n, 0, r.Uint64())
	}
}

// requireConserved asserts Σ_u sent(u) = Σ_u recv(u): every bit a node
// sends, another node receives.
func requireConserved(t *testing.T, where string, nw *netsim.Network) {
	t.Helper()
	var recv int64
	for u := range nw.N() {
		recv += nw.Meter.RecvBitsOf(topology.NodeID(u))
	}
	if sent := nw.Meter.TotalBits(); sent != recv {
		t.Fatalf("%s: Σ sent %d ≠ Σ received %d", where, sent, recv)
	}
}

// TestMeterConservesBits is Aspnes' convergecast invariant on the Meter:
// each message charges its sender and its receiver the same bits, so
// Σ sent = Σ received after every protocol step — heal, the primitives on
// the fast engine, the APX COUNT sketch fold, exact DISTINCT, the robust
// tier's audit and cross-check (byz.Record) and its primitives — over
// generated topologies × seeds × fault plans × team sizes 1 and 2.
func TestMeterConservesBits(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 6
	}
	r := rand.New(rand.NewPCG(53, 2))
	preds := []wire.Pred{wire.Less(100), wire.Less(400), wire.InRange(200, 700), wire.GreaterEq(900)}
	for i := range cases {
		g := topology.Grid(24, 24)
		if i > 0 {
			g = genConservationGraph(r)
		}
		seed := r.Uint64N(1 << 20)
		items := make([][]uint64, g.N())
		for u := range items {
			items[u] = []uint64{r.Uint64N(1000)}
			if u%4 == 3 {
				items[u] = append(items[u], r.Uint64N(1000))
			}
		}
		for _, plan := range conservationPlans {
			for _, team := range []int{1, 2} {
				where := fmt.Sprintf("case %d %s/n=%d/seed=%d/%s/team=%d", i, g.Name, g.N(), seed, plan.name, team)
				nw := netsim.NewMulti(g, items, 1023, netsim.WithSeed(seed))
				if plan.spec.Active() {
					nw.Faults = faults.New(plan.spec, nw.N(), nw.Root(), seed)
				}
				fe, _, err := spantree.NewFastHealed(nw)
				if err != nil {
					t.Fatalf("%s: heal: %v", where, err)
				}
				requireConserved(t, where+" heal", nw)
				fe.SetWorkers(team)
				n := agg.NewNet(fe, agg.WithSketchP(6))
				var rn *byz.RobustNet // the robust steps run on record's plane
				for _, s := range []struct {
					name string
					run  func() error
				}{
					{"count", func() error { n.Count(core.Linear, wire.Less(500)); return nil }},
					{"minmax", func() error { n.MinMax(core.Linear); return nil }},
					{"countvec", func() error { n.CountVec(core.Linear, preds, nil); return nil }},
					{"multiaggregate", func() error { n.MultiAggregate(core.Linear, wire.Less(800)); return nil }},
					{"apxcount", func() error { n.ApxCountRep(core.Linear, wire.Less(600), 2); return nil }},
					{"distinct", func() error { _, err := distinct.Exact(fe); return err }},
					{"record", func() (err error) { _, _, rn, err = byz.Record(nw, fe.View(), byz.WithSketchP(6)); return err }},
					{"robust count", func() error { rn.Count(core.Linear, wire.Less(500)); return nil }},
					{"robust sum", func() error { rn.Sum(core.Linear, wire.Less(500)); return nil }},
					{"robust minmax", func() error { rn.MinMax(core.Linear); return nil }},
					{"robust countvec", func() error { rn.CountVec(core.Linear, preds, nil); return nil }},
					{"robust multiaggregate", func() error { rn.MultiAggregate(core.Linear, wire.Less(800)); return nil }},
					{"robust apxcount", func() error { rn.ApxCountRep(core.Linear, wire.Less(600), 2); return nil }},
				} {
					if err := s.run(); err != nil {
						t.Fatalf("%s: %s: %v", where, s.name, err)
					}
					requireConserved(t, where+" "+s.name, nw)
				}
				if nw.Meter.TotalBits() == 0 {
					t.Fatalf("%s: nothing was charged", where)
				}
			}
		}
	}
}
