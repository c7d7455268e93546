package byz

import (
	"reflect"
	"testing"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
)

// TestOverlayIndependenceIdentity is what licenses keying a shared audit by
// deployment, fault plan, run seed and sketch precision alone: Record on two
// forks of one adversarial deployment whose sensed values differ — two
// epoch overlays — returns equal outcomes: every node's charged bits and
// messages, the quarantine order, the liars' lie sequences, the re-healed
// view, the sector verdicts, the trims and the cross-check deviation. A
// different run seed or sketch precision changes the outcome, so both stay
// in the key.
func TestOverlayIndependenceIdentity(t *testing.T) {
	g := topology.Grid(16, 16)
	tree := netsim.BuildTree(g, 0, netsim.DefaultMaxChildren)
	const maxX = 1 << 12
	base := make([][]uint64, g.N())
	for i := range base {
		base[i] = []uint64{uint64(i % 97)}
	}
	pool := netsim.NewForkPool(netsim.NewFromTree(g, tree, base, maxX, 1))
	// record forks the deployment on runSeed, writes overlay over its
	// readings as the engine's Job.Overlay does, and records its audit.
	record := func(spec faults.Spec, runSeed uint64, overlay func(u int) uint64, p int) []any {
		t.Helper()
		nw := pool.Get(runSeed)
		defer nw.Release()
		for u := range nw.Nodes {
			v := overlay(u)
			nw.Nodes[u].Items[0] = netsim.Item{Orig: v, Cur: v, Active: true}
		}
		nw.Faults = faults.New(spec, nw.N(), nw.Root(), runSeed)
		o, _, _, err := Record(nw, healedView(t, nw), WithSketchP(p))
		if err != nil {
			t.Fatal(err)
		}
		// Everything but the view cache, which only points at a view.
		return []any{o.report, o.healed, o.parent, o.charged, o.lies, o.suspected, o.trims, o.crossDev}
	}
	ramp := func(u int) uint64 { return uint64(u) }
	spread := func(u int) uint64 { return faults.Mix64(uint64(u)) % maxX }
	quarantined, moved := 0, 0
	for _, mode := range []string{faults.ByzCorrupt, faults.ByzEquivocate, faults.ByzCollude} {
		for _, crash := range []float64{0, 0.02} {
			spec := faults.Spec{Byz: 0.05, ByzMode: mode, Crash: crash}
			for _, p := range []int{4, 8} {
				want := record(spec, 7, ramp, p)
				if got := record(spec, 7, spread, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v p=%d: the audit differs between two overlays:\n got %+v\nwant %+v", spec, p, got, want)
				}
				if reflect.DeepEqual(record(spec, 8, ramp, p), want) {
					t.Errorf("%v p=%d: another run seed records the same audit", spec, p)
				}
				if reflect.DeepEqual(record(spec, 7, ramp, 12-p), want) {
					t.Errorf("%v p=%d: another sketch precision records the same audit", spec, p)
				}
				quarantined += len(want[0].(Report).Quarantined)
				moved += len(want[4].([]lieSeq))
			}
		}
	}
	if quarantined == 0 || moved == 0 {
		t.Fatalf("%d quarantines and %d moved lie sequences over the matrix: the identity would prove little", quarantined, moved)
	}
}
