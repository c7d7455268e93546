package spantree_test

import (
	"fmt"
	"reflect"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// edgeOps runs every convergecast of its engine on the per-edge oracle
// kernel (vec_edges_oracle_test.go); broadcasts are the engine's own.
type edgeOps struct{ *spantree.FastEngine }

func (o edgeOps) ConvergecastVec(vc spantree.VecCombiner) ([]uint64, error) {
	return spantree.ConvergecastEdges(o.FastEngine, vc)
}

// scatterPreds is k probes that form no ⊆-chain — alternating lower and
// upper bounds and ranges over the test domain — so the vector codec takes
// its general, slot-by-slot form.
func scatterPreds(k int) []wire.Pred {
	preds := make([]wire.Pred, k)
	for i := range preds {
		t := uint64(i+1) * 1000 / uint64(k+1)
		switch i % 3 {
		case 0:
			preds[i] = wire.GreaterEq(t)
		case 1:
			preds[i] = wire.InRange(t/2, t)
		default:
			preds[i] = wire.Less(1000 - t)
		}
	}
	return preds
}

// edgeCombiners is runCombiners widened to every vector combiner shape:
// CountVec and CountVecSum over nested and unnested probe sets of every
// width the probe plane uses.
func edgeCombiners(n *agg.Net) []any {
	out := runCombiners(n)
	for _, k := range []int{1, 8, 64} {
		out = append(out, n.CountVec(core.Linear, scatterPreds(k), nil))
		for _, preds := range [][]wire.Pred{chainPreds(k), scatterPreds(k)} {
			counts, sum := n.CountVecSum(core.Linear, preds, nil)
			out = append(out, [2]any{counts, sum})
		}
	}
	return out
}

// watchDeepEdge watches the edge above the view's last position — a
// deepest node — on both twins, so its per-edge bits can be compared.
func watchDeepEdge(vc viewCase) bool {
	v := vc.fe.View()
	if v.N() < 2 {
		return false
	}
	u := v.Order[v.N()-1]
	vc.nw.Meter.WatchEdge(u, v.Parent[u])
	vc.ref.Meter.WatchEdge(u, v.Parent[u])
	return true
}

// TestEdgeKernelMatchesOracle holds levelVec's per-edge branch to the
// codec kernel it replaced: under drop and dup plans, a watched edge, and
// Byzantine senders on lossy links, the root value, every node's
// sent/recv/msgs and the watched edge's bits must equal the oracle's, over
// topology × N × view × combiner × workers.
func TestEdgeKernelMatchesOracle(t *testing.T) {
	plans := []struct {
		name  string
		spec  faults.Spec
		watch bool
	}{
		{"drop", faults.Spec{Drop: 0.15}, false},
		{"dup", faults.Spec{Dup: 0.15}, false},
		{"drop+dup", faults.Spec{Drop: 0.1, Dup: 0.1}, false},
		{"watched", faults.Spec{}, true},
		{"byz+drop+dup", faults.Spec{Byz: 0.1, Drop: 0.08, Dup: 0.08}, false},
	}
	ops := 0
	for _, n := range matrixSizes {
		for gi, g := range matrixGraphs(n) {
			for _, plan := range plans {
				for _, workers := range []int{1, 3} {
					for _, vc := range viewCases(t, g, plan.spec, workers, uint64(7+gi)) {
						where := fmt.Sprintf("%s/%s/%s/workers=%d", g.Name, vc.name, plan.name, workers)
						requireSameMeters(t, where+" (setup)", vc.nw, vc.ref)
						watched := plan.watch && watchDeepEdge(vc)
						or := spantree.NewFastView(vc.ref, vc.or.view)
						or.SetWorkers(workers)
						got := edgeCombiners(agg.NewNet(vc.fe))
						want := edgeCombiners(agg.NewNet(edgeOps{or}))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: root values\n got %v\nwant %v", where, got, want)
						}
						requireSameMeters(t, where, vc.nw, vc.ref)
						if watched && (vc.nw.Meter.WatchedBits() == 0 || vc.nw.Meter.WatchedBits() != vc.ref.Meter.WatchedBits()) {
							t.Fatalf("%s: watched edge carried %d bits, oracle %d", where,
								vc.nw.Meter.WatchedBits(), vc.ref.Meter.WatchedBits())
						}
						ops += len(got)
					}
				}
			}
		}
	}
	if ops < 5000 {
		t.Fatalf("matrix too small: %d convergecasts", ops)
	}
}
