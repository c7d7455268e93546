package agg

import (
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

const testMaxX = 1 << 12

func buildNet(t *testing.T, g *topology.Graph, values []uint64, engine string, opts ...Option) *Net {
	t.Helper()
	nw := netsim.New(g, values, testMaxX, netsim.WithSeed(99))
	var ops spantree.Ops
	switch engine {
	case "fast":
		ops = spantree.NewFast(nw)
	case "goroutine":
		ops = spantree.NewGoroutine(nw)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return NewNet(ops, opts...)
}

func TestPrimitivesMatchGroundTruth(t *testing.T) {
	for _, engine := range []string{"fast", "goroutine"} {
		for _, kind := range []workload.Kind{workload.Uniform, workload.Zipf, workload.Constant} {
			t.Run(engine+"/"+string(kind), func(t *testing.T) {
				values := workload.Generate(kind, 200, testMaxX, 7)
				net := buildNet(t, topology.Grid(10, 20), values, engine)

				var wantMin, wantMax, wantSum uint64
				wantMin = values[0]
				for _, v := range values {
					if v < wantMin {
						wantMin = v
					}
					if v > wantMax {
						wantMax = v
					}
					wantSum += v
				}
				lo, hi, ok := net.MinMax(core.Linear)
				if !ok || lo != wantMin || hi != wantMax {
					t.Errorf("MinMax = (%d,%d,%v), want (%d,%d,true)", lo, hi, ok, wantMin, wantMax)
				}
				if got := net.Count(core.Linear, wire.True()); got != uint64(len(values)) {
					t.Errorf("Count = %d, want %d", got, len(values))
				}
				if got := net.Sum(core.Linear, wire.True()); got != wantSum {
					t.Errorf("Sum = %d, want %d", got, wantSum)
				}
				avg, ok := net.Average(core.Linear, wire.True())
				if !ok {
					t.Fatal("Average not ok")
				}
				wantAvg := float64(wantSum) / float64(len(values))
				if avg != wantAvg {
					t.Errorf("Average = %g, want %g", avg, wantAvg)
				}
			})
		}
	}
}

func TestCountPredicates(t *testing.T) {
	values := []uint64{1, 5, 5, 9, 12, 100}
	net := buildNet(t, topology.Line(6), values, "fast")
	tests := []struct {
		pred wire.Pred
		want uint64
	}{
		{wire.Less(5), 1},
		{wire.Less(6), 3},
		{wire.GreaterEq(9), 3},
		{wire.InRange(5, 13), 4},
		{wire.True(), 6},
		{wire.Less(0), 0},
	}
	for _, tt := range tests {
		if got := net.Count(core.Linear, tt.pred); got != tt.want {
			t.Errorf("Count(%s) = %d, want %d", tt.pred, got, tt.want)
		}
	}
}

func TestLogDomainCount(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 4, 7, 8, 100}
	// log buckets: {0,1}→0, {2,3}→1, {4,7}→2, {8}→3, {100}→6
	net := buildNet(t, topology.Ring(8), values, "fast")
	if got := net.Count(core.LogDomain, wire.Less(2)); got != 4 {
		t.Errorf("log-domain Count(<2) = %d, want 4", got)
	}
	lo, hi, ok := net.MinMax(core.LogDomain)
	if !ok || lo != 0 || hi != 6 {
		t.Errorf("log-domain MinMax = (%d,%d,%v), want (0,6,true)", lo, hi, ok)
	}
}

// TestEnginesAgree runs the same query sequence — every vector combiner,
// and the sketch plane — on both engines and demands identical results and
// identical per-node meters: the goroutine engine sends every partial
// through the combiner's codec, the fast engine never does.
func TestEnginesAgree(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Line(50),
		topology.Grid(8, 8),
		topology.Star(40),
		topology.RandomGeometric(60, 0, 3),
	}
	for _, g := range graphs {
		t.Run(g.Name, func(t *testing.T) {
			values := workload.Generate(workload.Uniform, g.N(), testMaxX, 21)
			fast := buildNet(t, g, values, "fast")
			goro := buildNet(t, g, values, "goroutine")

			run := func(n *Net) (results []uint64) {
				lo, hi, _ := n.MinMax(core.Linear)
				results = append(results, lo, hi)
				results = append(results, n.Count(core.Linear, wire.Less(testMaxX/2)))
				results = append(results, n.Sum(core.Linear, wire.True()))
				ests := n.ApxCountRep(core.Linear, wire.True(), 3)
				for _, e := range ests {
					results = append(results, uint64(e*1000))
				}
				c, s, flo, fhi, _ := n.MultiAggregate(core.Linear, wire.Less(testMaxX/3))
				results = append(results, c, s, flo, fhi)
				chain := []wire.Pred{wire.Less(testMaxX / 8), wire.Less(testMaxX / 2), wire.True()}
				counts, sum := n.CountVecSum(core.Linear, chain, nil)
				results = append(append(results, counts...), sum)
				general := []wire.Pred{wire.GreaterEq(testMaxX / 2), wire.InRange(100, 900), wire.Less(testMaxX / 4)}
				results = append(results, n.CountVec(core.Linear, general, nil)...)
				lo, hi, _ = n.MinMax(core.LogDomain)
				return append(results, lo, hi)
			}
			rf, rg := run(fast), run(goro)
			if len(rf) != len(rg) {
				t.Fatalf("result lengths differ: %d vs %d", len(rf), len(rg))
			}
			for i := range rf {
				if rf[i] != rg[i] {
					t.Errorf("result[%d]: fast=%d goroutine=%d", i, rf[i], rg[i])
				}
			}
			mf, mg := fast.Network().Meter, goro.Network().Meter
			for u := 0; u < mf.N(); u++ {
				uid := topology.NodeID(u)
				if mf.SentBitsOf(uid) != mg.SentBitsOf(uid) || mf.RecvBitsOf(uid) != mg.RecvBitsOf(uid) ||
					mf.MessagesOf(uid) != mg.MessagesOf(uid) {
					t.Fatalf("node %d meters differ: fast sent/recv/msgs %d/%d/%d, goroutine %d/%d/%d", u,
						mf.SentBitsOf(uid), mf.RecvBitsOf(uid), mf.MessagesOf(uid),
						mg.SentBitsOf(uid), mg.RecvBitsOf(uid), mg.MessagesOf(uid))
				}
			}
		})
	}
}

// TestDifferentialLocalNet runs the full APX MEDIAN on the simulated
// network and on core.LocalNet with matching seeds and expects identical
// outputs — the algorithms consume exactly the same estimate streams.
func TestDifferentialLocalNet(t *testing.T) {
	g := topology.Grid(16, 16)
	values := workload.Generate(workload.Uniform, g.N(), testMaxX, 31)

	simNet := buildNet(t, g, values, "fast")
	localNet := core.NewLocalNet(values, testMaxX, core.WithLocalSeed(99))

	simRes, err := core.ApxMedian(simNet, core.ApxParams{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	locRes, err := core.ApxMedian(localNet, core.ApxParams{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Value != locRes.Value || simRes.Iterations != locRes.Iterations || simRes.HaltedEarly != locRes.HaltedEarly {
		t.Errorf("sim %+v vs local %+v", simRes, locRes)
	}

	detSim, err := core.Median(simNet)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.TrueMedian(core.SortedCopy(values)); detSim.Values[0] != want {
		t.Errorf("simulated deterministic median = %d, want %d", detSim.Values[0], want)
	}
}

// TestZoomMatchesLocal drives ApxMedian2 on both nets; stage decisions and
// final values must agree.
func TestZoomMatchesLocal(t *testing.T) {
	g := topology.RandomGeometric(256, 0, 17)
	values := workload.Generate(workload.Exponential, g.N(), testMaxX, 8)

	simNet := buildNet(t, g, values, "fast")
	localNet := core.NewLocalNet(values, testMaxX, core.WithLocalSeed(99))

	p := core.Apx2Params{Beta: 1.0 / 32, Epsilon: 0.25}
	simRes, err := core.ApxMedian2(simNet, p)
	if err != nil {
		t.Fatal(err)
	}
	locRes, err := core.ApxMedian2(localNet, p)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Value != locRes.Value {
		t.Errorf("sim value %d vs local %d", simRes.Value, locRes.Value)
	}
	if len(simRes.StageMu) != len(locRes.StageMu) {
		t.Fatalf("stage counts differ: %v vs %v", simRes.StageMu, locRes.StageMu)
	}
	for i := range simRes.StageMu {
		if simRes.StageMu[i] != locRes.StageMu[i] {
			t.Errorf("stage %d: µ̂ sim=%d local=%d", i, simRes.StageMu[i], locRes.StageMu[i])
		}
	}
}

// TestMeterChargesBroadcast sanity-checks that queries actually cost bits
// and that the root is charged for its sends.
func TestMeterChargesBroadcast(t *testing.T) {
	values := workload.Generate(workload.Uniform, 64, testMaxX, 3)
	net := buildNet(t, topology.Line(64), values, "fast")
	before := net.Network().Meter.Snapshot()
	net.Count(core.Linear, wire.Less(100))
	d := net.Network().Meter.Since(before)
	if d.TotalBits == 0 || d.MaxPerNode == 0 {
		t.Fatalf("COUNTP charged nothing: %+v", d)
	}
	if d.Messages < int64(2*(64-1)) {
		t.Errorf("COUNTP messages = %d, want >= %d (down+up each edge)", d.Messages, 2*63)
	}
}

func TestFilterDeactivatesAndResets(t *testing.T) {
	values := []uint64{1, 5, 10, 15, 20, 25}
	net := buildNet(t, topology.Line(6), values, "fast")

	before := net.Network().Meter.Snapshot()
	net.Filter(wire.InRange(5, 21)) // keep 5,10,15,20
	if d := net.Network().Meter.Since(before); d.TotalBits == 0 {
		t.Error("filter broadcast charged nothing")
	}
	if got := net.Count(core.Linear, wire.True()); got != 4 {
		t.Errorf("post-filter count = %d, want 4", got)
	}
	lo, hi, ok := net.MinMax(core.Linear)
	if !ok || lo != 5 || hi != 20 {
		t.Errorf("post-filter MinMax = (%d,%d,%v)", lo, hi, ok)
	}
	// Filters compose (conjunction).
	net.Filter(wire.GreaterEq(10))
	if got := net.Count(core.Linear, wire.True()); got != 3 {
		t.Errorf("composed filter count = %d, want 3", got)
	}
	net.Reset()
	if got := net.Count(core.Linear, wire.True()); got != 6 {
		t.Errorf("post-reset count = %d, want 6", got)
	}
}

func TestFilteredMedian(t *testing.T) {
	values := workload.Generate(workload.Uniform, 100, testMaxX, 13)
	net := buildNet(t, topology.Grid(10, 10), values, "fast")
	net.Filter(wire.Less(testMaxX / 2))
	defer net.Reset()

	res, err := core.Median(net)
	if err != nil {
		t.Fatal(err)
	}
	var kept []uint64
	for _, v := range values {
		if v < testMaxX/2 {
			kept = append(kept, v)
		}
	}
	if want := core.TrueMedian(core.SortedCopy(kept)); res.Values[0] != want {
		t.Errorf("filtered median = %d, want %d", res.Values[0], want)
	}
}

// TestPowerOfTwoMinusOneDomain is a regression test: with X = 2^k−1 the
// Fig. 1 path crosses thresholds above X (its interval is [m−z, M+z]); the
// exact search skips them and the approximate ones clamp them to X+1, so
// every probe still encodes in the fixed predicate width.
func TestPowerOfTwoMinusOneDomain(t *testing.T) {
	const maxX = 1<<10 - 1
	g := topology.Grid(8, 8)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 2)
	// Force the maximum to sit at the domain edge, the worst case.
	values[7] = maxX
	nw := netsim.New(g, values, maxX, netsim.WithSeed(2))
	net := NewNet(spantree.NewFast(nw))

	res, err := core.Median(net)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.TrueMedian(core.SortedCopy(values)); res.Values[0] != want {
		t.Errorf("median = %d, want %d", res.Values[0], want)
	}
	if _, err := core.ApxMedian(net, core.ApxParams{Epsilon: 0.5}); err != nil {
		t.Fatalf("apx median on edge domain: %v", err)
	}
	if _, err := core.ApxMedian2(net, core.Apx2Params{Beta: 0.25, Epsilon: 0.5}); err != nil {
		t.Fatalf("apx median2 on edge domain: %v", err)
	}
}
