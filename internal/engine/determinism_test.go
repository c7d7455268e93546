package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sensoragg/internal/netsim"
)

// randomisedKinds are the kinds that draw coins: sketches, samples and
// gossip partners all come from the run network's seeded node streams.
var randomisedKinds = []string{KindApxMedian, KindApxMedian2, KindSampling, KindF2,
	KindApxDistinct, KindApxCount, KindGossip, KindGossipDistinct}

// TestRandomisedKindsAreDeterministic: a randomised kind's coins are a
// function of the run seed alone, so the same job submitted twice, each
// time to a fresh engine, returns the same Result but for WallNS and
// charges every node the same — on two topologies at three run seeds. The
// seeds must matter: some kind answers differently under another one.
func TestRandomisedKindsAreDeterministic(t *testing.T) {
	t.Parallel()
	seedsMatter := false
	for _, topo := range []string{"grid", "rgg"} {
		spec := Spec{Topology: topo, N: 256, Workload: "zipf", Seed: 4}
		for _, kind := range randomisedKinds {
			var values []float64
			for seed := uint64(1); seed <= 3; seed++ {
				job := Job{ID: kind, Spec: spec, Query: Query{Kind: kind}, RunSeed: seed}
				label := fmt.Sprintf("%s on %s, run seed %d", kind, topo, seed)
				var results [2]Result
				var ledgers [2]netsim.Ledger
				for i := range results {
					results[i] = New(Options{Workers: 2}).Submit(context.Background(), []Job{job})[0]
					if results[i].Failed() {
						t.Fatalf("%s: %s", label, results[i].Error)
					}
					var forked Result
					forked, ledgers[i] = ledgerRun(t, New(Options{Workers: 1}), job)
					sameResult(t, label+": the metered fork against Submit", forked, results[i])
				}
				sameResult(t, label+": two Submits", results[1], results[0])
				if len(ledgers[0]) == 0 || !slices.Equal(ledgers[0], ledgers[1]) {
					t.Fatalf("%s: per-node meters differ between two runs (or are empty)", label)
				}
				values = append(values, results[0].Value)
			}
			slices.Sort(values)
			seedsMatter = seedsMatter || len(slices.Compact(values)) > 1
		}
	}
	if !seedsMatter {
		t.Fatal("no randomised kind answers differently under another run seed: the runs draw no coins")
	}
}

// ledgerRun executes job on a fork of e's session as a solo Submit does and
// returns its Result and every node's meter.
func ledgerRun(t *testing.T, e *Engine, job Job) (Result, netsim.Ledger) {
	t.Helper()
	spec := job.Spec.Normalize()
	nw, err := e.fork(spec, &job)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	r, err := e.runAlone(nw, job, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.WallNS = 0
	return r, nw.Meter.Ledger()
}

// TestApxMedian2WindowPastDomain: on the 144- and 169-node zipf grids the
// approximate order statistic's binade can start past the value domain
// (2^µ̂ > X); the stage's count then takes every item instead of framing a
// threshold the value width cannot hold, and the query answers.
func TestApxMedian2WindowPastDomain(t *testing.T) {
	e := New(Options{Workers: 2})
	for _, n := range []int{144, 169} {
		spec := Spec{Topology: "grid", N: n, Workload: "zipf", Seed: 4}
		for seed := uint64(1); seed <= 3; seed++ {
			job := Job{Spec: spec, Query: Query{Kind: KindApxMedian2}, RunSeed: seed}
			if r := e.Submit(context.Background(), []Job{job})[0]; r.Failed() {
				t.Errorf("%d-node grid, run seed %d: %s", n, seed, r.Error)
			}
		}
	}
}

// TestF2RunSeedsAreIndependent: another run seed draws other tug-of-war
// signs, so the F2 estimate on one deployment moves with the seed (seeds
// 1–63 used to permute a row's columns only, repeating one estimate).
func TestF2RunSeedsAreIndependent(t *testing.T) {
	e := New(Options{Workers: 2})
	spec := Spec{Topology: "grid", N: 100, Workload: "zipf", Seed: 4}
	var estimates []float64
	for seed := uint64(1); seed <= 3; seed++ {
		r := e.Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindF2}, RunSeed: seed}})[0]
		if r.Failed() {
			t.Fatalf("run seed %d: %s", seed, r.Error)
		}
		estimates = append(estimates, r.Value)
	}
	distinct := slices.Clone(estimates)
	if slices.Sort(distinct); len(slices.Compact(distinct)) != 3 {
		t.Errorf("f2 at run seeds 1, 2, 3: estimates %v, want three different ones", estimates)
	}
}
