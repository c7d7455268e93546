package core_test

import (
	"fmt"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// recNet records what a search asked of the network: its MinMax bounds and
// every COUNT it sent, in order.
type recNet struct {
	core.Net
	lo, hi uint64
	counts []countCall
}

// countCall is one sweep: a COUNTP (vec false) or a CountVec.
type countCall struct {
	vec    bool
	preds  []wire.Pred
	counts []uint64
}

func (r *recNet) MinMax(d core.Domain) (uint64, uint64, bool) {
	lo, hi, ok := r.Net.MinMax(d)
	r.lo, r.hi = lo, hi
	return lo, hi, ok
}

func (r *recNet) Count(d core.Domain, p wire.Pred) uint64 {
	c := r.Net.Count(d, p)
	r.counts = append(r.counts, countCall{preds: []wire.Pred{p}, counts: []uint64{c}})
	return c
}

func (r *recNet) CountVec(d core.Domain, preds []wire.Pred, dst []uint64) []uint64 {
	dst = r.Net.CountVec(d, preds, dst)
	r.counts = append(r.counts, countCall{vec: true, preds: append([]wire.Pred(nil), preds...), counts: append([]uint64(nil), dst...)})
	return dst
}

// fig1Case builds one case on graph g: the deployment with the fault plan
// attached and healed, behind a recording net, twice; n is the number of
// items the healed tree reaches. Up to meterMaxN nodes the twins are
// simulated networks (nws holds them, the oracle's first); above it they
// are reference nets over those items, and nws is nil.
func fig1Case(t *testing.T, g *topology.Graph, wl workload.Kind, fs faults.Spec, seed uint64) (oracle, net *recNet, nws []*netsim.Network, n uint64) {
	t.Helper()
	maxX := uint64(4 * g.N())
	values := workload.Generate(wl, g.N(), maxX, seed)
	side := func() (*netsim.Network, *spantree.FastEngine) {
		nw := netsim.New(g, values, maxX, netsim.WithSeed(seed))
		if fs.Active() {
			nw.Faults = faults.New(fs, nw.N(), nw.Root(), seed)
		}
		fe, _, err := spantree.NewFastHealed(nw)
		if err != nil {
			t.Fatal(err)
		}
		return nw, fe
	}
	nw, fe := side()
	var reached []uint64
	for _, u := range fe.View().Order {
		for _, it := range nw.Nodes[u].Items {
			reached = append(reached, it.Orig)
		}
	}
	if g.N() > meterMaxN {
		return &recNet{Net: core.NewLocalNet(reached, maxX)}, &recNet{Net: core.NewLocalNet(reached, maxX)}, nil, uint64(len(reached))
	}
	twin, twinFe := side()
	return &recNet{Net: agg.NewNet(fe)}, &recNet{Net: agg.NewNet(twinFe)}, []*netsim.Network{nw, twin}, uint64(len(reached))
}

// meterMaxN is the largest case TestWidthOneIsFig1 runs on simulated
// networks, per-node meters compared; larger cases run on reference nets.
const meterMaxN = 4096

// TestWidthOneIsFig1 holds the width-1 selection search to the Fig. 1
// binary search it replaced (fig1_oracle_test.go), run on twin networks:
// over topologies, workloads, sizes, ranks and healed fault plans, it
// returns the oracle's value or error; it sends every sweep as one COUNTP,
// the first COUNT(TRUE), and then exactly the oracle's COUNT predicates in
// order less those whose count the running candidate interval already
// fixed; and it charges no node more than the oracle did. Cases above
// meterMaxN nodes (not under -short) run on reference nets over the
// healed tree's items: the schedule is checked, the meters are not.
func TestWidthOneIsFig1(t *testing.T) {
	ns := []int{1, 2, 3, 17, 256, 1024, 4096}
	if !testing.Short() {
		ns = append(ns, 16384, 65536)
	}
	plans := []struct {
		name string
		fs   faults.Spec
	}{{"reliable", faults.Spec{}}, {"crash", faults.Spec{Crash: 0.05}}, {"linkfail", faults.Spec{LinkFail: 0.05}}}
	for _, topo := range []string{"grid", "line", "star", "rgg"} {
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			for _, n := range ns {
				seed := uint64(1 + n)
				g, err := topology.Build(topo, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, wl := range []workload.Kind{workload.Uniform, workload.Zipf, workload.Bimodal, workload.FewDistinct} {
					for _, plan := range plans {
						name := fmt.Sprintf("%s/%s/N=%d/%s", topo, wl, n, plan.name)
						oracle, net, nws, items := fig1Case(t, g, wl, plan.fs, seed)
						checkFig1Ranks(t, name, items, oracle, net, nws)
					}
				}
			}
		})
	}
}

// checkFig1Ranks runs every rank of a case over n items through both
// sides, comparing the meters of simulated twins nws.
func checkFig1Ranks(t *testing.T, name string, n uint64, oracle, net *recNet, nws []*netsim.Network) {
	t.Helper()
	ceilPhi := func(phi float64) uint64 { return core.QuantileRank(phi, n) }
	ranks := []uint64{0 /* median */, 1, 2, ceilPhi(0.01), ceilPhi(0.25), ceilPhi(0.75), ceilPhi(0.99), n - 1, n}
	for ri, k := range ranks {
		median := ri == 0
		label := fmt.Sprintf("%s/k=%d", name, k)
		if median {
			label = name + "/median"
		}
		var oracleBefore, before []int64
		if nws != nil {
			oracleBefore, before = perNode(nws[0]), perNode(nws[1])
		}
		oracle.counts, net.counts = nil, nil

		var want core.OracleResult
		var werr, err error
		var got core.BatchResult
		if median {
			want, werr = core.OracleMedian(oracle)
			got, err = core.SelectRanksBatched(net, []core.BatchRank{{Median: true}}, 1)
		} else {
			want, werr = core.OracleOrderStatistic(oracle, k)
			got, err = core.OrderStatistic(net, k) // k = 0 fails before any traffic, as the oracle does
		}
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, oracle %v", label, err, werr)
		}
		if err == nil && got.Values[0] != want.Value {
			t.Fatalf("%s: value %d, oracle %d", label, got.Values[0], want.Value)
		}

		// The oracle's predicates less the fixed ones, replayed against the
		// candidate interval they narrow.
		var wantPreds []wire.Pred
		if len(oracle.counts) > 0 {
			wantPreds = append(wantPreds, oracle.counts[0].preds[0])
			j := k
			if median {
				j = (oracle.counts[0].counts[0] + 1) / 2
			}
			lo, hi := oracle.lo, oracle.hi
			for _, c := range oracle.counts[1:] {
				th := c.preds[0].A
				if th <= lo || th > hi {
					continue
				}
				wantPreds = append(wantPreds, c.preds[0])
				if c.counts[0] < j {
					lo = th
				} else {
					hi = th - 1
				}
			}
		}
		if len(net.counts) != len(wantPreds) {
			t.Fatalf("%s: %d sweeps, want %d (the oracle's %d less those fixed)", label, len(net.counts), len(wantPreds), len(oracle.counts))
		}
		for i, c := range net.counts {
			if c.vec {
				t.Fatalf("%s: sweep %d sent as CountVec %v, want a COUNTP", label, i, c.preds)
			}
			if c.preds[0] != wantPreds[i] {
				t.Fatalf("%s: sweep %d sent %v, want %v", label, i, c.preds[0], wantPreds[i])
			}
		}
		if len(net.counts) > 0 && net.counts[0].preds[0] != wire.True() {
			t.Fatalf("%s: first sweep %v, want COUNT(TRUE)", label, net.counts[0].preds[0])
		}

		if nws == nil {
			continue
		}
		oracleAfter, after := perNode(nws[0]), perNode(nws[1])
		for u := range after {
			if paid, oraclePaid := after[u]-before[u], oracleAfter[u]-oracleBefore[u]; paid > oraclePaid {
				t.Fatalf("%s: node %d paid %d bits, oracle %d", label, u, paid, oraclePaid)
			}
		}
	}
}

// perNode is every node's sent+received bits so far.
func perNode(nw *netsim.Network) []int64 {
	bits := make([]int64, nw.N())
	for u := range bits {
		bits[u] = nw.Meter.PerNode(topology.NodeID(u))
	}
	return bits
}
