package core_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// loopWidths are the probe widths the loop oracles draw from.
var loopWidths = []int{1, 2, 3, 4, 5, 8, 16, 32, 64}

// loopRanks draws one to four ranks over n items, some past n, and seed
// windows for half of them.
func loopRanks(rng *rand.Rand, n, maxX uint64) ([]core.BatchRank, []core.SeedWindow) {
	ranks := make([]core.BatchRank, 1+rng.IntN(4))
	for i := range ranks {
		switch rng.IntN(3) {
		case 0:
			ranks[i] = core.BatchRank{Median: true}
		case 1:
			ranks[i] = core.BatchRank{Phi: 1 - rng.Float64()}
		default:
			ranks[i] = core.BatchRank{K: 1 + rng.Uint64N(n+n/8+1)}
		}
	}
	if rng.IntN(2) == 0 {
		return ranks, nil
	}
	seeds := make([]core.SeedWindow, len(ranks))
	for i := range seeds {
		c, d := rng.Uint64N(maxX/2)*2, rng.Uint64N(maxX/8+2)
		seeds[i] = core.SeedWindow{Lo: c - min(c, d), Hi: c + min(d, maxX-c)}
	}
	return ranks, seeds
}

// soloRun is one solo search's outcome as the loop oracles compare it: the
// result or error, a mid-sweep kill's panic, and every COUNT it sent.
type soloRun struct {
	res    core.BatchResult
	err    string
	killed string
	counts []countCall
}

func runSolo(net *recNet, drive func(core.Net, []core.BatchRank, int, []core.SeedWindow) (core.BatchResult, error), ranks []core.BatchRank, width int, seeds []core.SeedWindow) (out soloRun) {
	defer func() {
		if r := recover(); r != nil {
			out.killed = fmt.Sprint(r)
		}
		out.counts = net.counts
	}()
	res, err := drive(net, ranks, width, seeds)
	out.res = res
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestSoloLoopOracle holds SelectRanksSeeded, a core.Plane of one, to the
// solo loop it replaced (loop_oracle_test.go) on twin simulated networks:
// over generated topologies, workloads, domains, ranks, seed windows,
// widths 1–64 and the fault plans none, crash+linkfail and phased, the
// same values or error, sweeps, probes and seeding, the same COUNT calls
// in order (COUNTP or CountVec, predicates and counts), the same mid-sweep
// kill, and every node charged the same. A reference-net leg whose
// maximum is 2⁶⁴−1 holds the TRUE top probe.
func TestSoloLoopOracle(t *testing.T) {
	t.Parallel()
	cases := 1000
	if testing.Short() {
		cases = 300
	}
	topos := []string{"grid", "rgg", "ring", "star", "btree", "line"}
	sizes := []int{16, 64, 100, 144, 256}
	wls := workload.Kinds()
	var errs, kills, trueTops int
	for c := uint64(0); c < uint64(cases); c++ {
		rng := rand.New(rand.NewPCG(c, 0x1009))
		topo, n, wl := topos[rng.IntN(len(topos))], sizes[rng.IntN(len(sizes))], wls[rng.IntN(len(wls))]
		maxX := []uint64{uint64(4 * n), 7, 1 << 40}[rng.IntN(3)]
		var fs faults.Spec
		switch rng.IntN(3) {
		case 1:
			fs = faults.Spec{Crash: 0.05, LinkFail: 0.05}
		case 2:
			fs = faults.Spec{MidAt: 2 + rng.IntN(3), MidCrash: 0.1, MidLinkFail: 0.03}
		}
		g, err := topology.Build(topo, n, c+1)
		if err != nil {
			t.Fatal(err)
		}
		values := workload.Generate(wl, n, maxX, c+1)
		side := func() (*recNet, *netsim.Network) {
			nw := netsim.New(g, values, maxX, netsim.WithSeed(c+1))
			if fs.Active() {
				nw.Faults = faults.New(fs, nw.N(), nw.Root(), c+1)
			}
			fe, _, err := spantree.NewFastHealed(nw)
			if err != nil {
				t.Fatal(err)
			}
			return &recNet{Net: agg.NewNet(fe)}, nw
		}
		ranks, seeds := loopRanks(rng, uint64(n), maxX)
		width := loopWidths[rng.IntN(len(loopWidths))]
		oracleNet, oracleNw := side()
		net, nw := side()
		want := runSolo(oracleNet, core.OracleSelectRanksSeeded, ranks, width, seeds)
		got := runSolo(net, core.SelectRanksSeeded, ranks, width, seeds)
		where := fmt.Sprintf("case %d %s/%d/%s maxX=%d %+v width %d ranks %v seeds %v", c, topo, n, wl, maxX, fs, width, ranks, seeds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n plane %+v\n oracle %+v", where, got, want)
		}
		if !slices.Equal(perNode(nw), perNode(oracleNw)) {
			t.Fatalf("%s: per-node meters differ", where)
		}
		errs, kills = errs+min(len(got.err), 1), kills+min(len(got.killed), 1)
	}
	for c := uint64(0); c < uint64(cases); c++ {
		rng := rand.New(rand.NewPCG(c, 0x2009))
		values := make([]uint64, 1+rng.IntN(200))
		for i := range values {
			values[i] = []uint64{0, math.MaxUint64, rng.Uint64(), math.MaxUint64 - rng.Uint64N(1000)}[rng.IntN(4)]
		}
		ranks, seeds := loopRanks(rng, uint64(len(values)), math.MaxUint64)
		width := loopWidths[rng.IntN(len(loopWidths))]
		want := runSolo(&recNet{Net: core.NewLocalNet(values, math.MaxUint64)}, core.OracleSelectRanksSeeded, ranks, width, seeds)
		got := runSolo(&recNet{Net: core.NewLocalNet(values, math.MaxUint64)}, core.SelectRanksSeeded, ranks, width, seeds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reference case %d width %d ranks %v seeds %v:\n plane %+v\n oracle %+v", c, width, ranks, seeds, got, want)
		}
		if slices.Contains(values, math.MaxUint64) {
			trueTops++
		}
	}
	t.Logf("%d simulated cases (%d errors, %d mid-sweep kills), %d reference cases (%d with the TRUE top probe)", cases, errs, kills, cases, trueTops)
}
