package agg

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
	"sensoragg/internal/workload"
)

// vecTestNet builds a fresh grid deployment for vector-path tests.
func vecTestNet(n int, seed uint64) *Net {
	side := 1
	for (side+1)*(side+1) <= n {
		side++
	}
	g := topology.Grid(side, side)
	maxX := uint64(4 * n)
	values := workload.Generate(workload.Zipf, g.N(), maxX, seed)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(seed))
	return NewNet(spantree.NewFast(nw))
}

// TestCountVecMatchesCount: one vector sweep must return exactly the counts
// k separate COUNTP protocols return, for nested probe chains (the
// selection shape), arbitrary probe sets, and the TRUE-topped chain.
func TestCountVecMatchesCount(t *testing.T) {
	net := vecTestNet(256, 3)
	for name, preds := range map[string][]wire.Pred{
		"nested":    {wire.Less(10), wire.Less(100), wire.Less(500), wire.Less(900)},
		"nested+T":  {wire.Less(64), wire.Less(512), wire.True()},
		"arbitrary": {wire.GreaterEq(100), wire.InRange(50, 400), wire.True(), wire.Less(3)},
		"single":    {wire.Less(777)},
	} {
		t.Run(name, func(t *testing.T) {
			got := net.CountVec(core.Linear, preds, nil)
			if len(got) != len(preds) {
				t.Fatalf("CountVec returned %d counts for %d preds", len(got), len(preds))
			}
			for i, p := range preds {
				if want := net.Count(core.Linear, p); got[i] != want {
					t.Errorf("pred %d (%s): CountVec %d != Count %d", i, p, got[i], want)
				}
			}
		})
	}

	// An empty probe set is a no-op: no counts, no communication.
	before := net.Network().Meter.Snapshot()
	if got := net.CountVec(core.Linear, nil, nil); len(got) != 0 {
		t.Errorf("empty probe set returned %v", got)
	}
	if d := net.Network().Meter.Since(before); d.TotalBits != 0 {
		t.Errorf("empty probe set charged %d bits", d.TotalBits)
	}
}

// TestCountVecCheaperThanSeparateCounts pins the bit-complexity win the
// nested (delta-gamma) encoding buys: one 8-probe chain sweep must cost
// well under 8 separate COUNT sweeps in total bits.
func TestCountVecCheaperThanSeparateCounts(t *testing.T) {
	net := vecTestNet(256, 5)
	nw := net.Network()
	preds := make([]wire.Pred, 8)
	for i := range preds {
		preds[i] = wire.Less(uint64(100 * (i + 1)))
	}

	before := nw.Meter.Snapshot()
	net.CountVec(core.Linear, preds, nil)
	vecBits := nw.Meter.Since(before).TotalBits

	before = nw.Meter.Snapshot()
	for _, p := range preds {
		net.Count(core.Linear, p)
	}
	sepBits := nw.Meter.Since(before).TotalBits

	if vecBits*9 >= sepBits*5 {
		t.Errorf("8-probe vector sweep cost %d bits vs %d for separate counts — want ≥1.8x cheaper", vecBits, sepBits)
	}
}

// TestCountVecIdenticalAcrossEngines: the vector kernel, the boxed twin on
// the generic codec path, a team of 8, and the goroutine
// reference engine must produce identical counts and identical meters for
// the same probe chain.
func TestCountVecIdenticalAcrossEngines(t *testing.T) {
	const n, seed = 144, 9
	preds := []wire.Pred{wire.Less(37), wire.Less(222), wire.Less(404), wire.True()}
	type outcome struct {
		counts []uint64
		delta  netsim.Delta
	}
	run := func(mk func(nw *netsim.Network) spantree.Ops) outcome {
		side := 12
		g := topology.Grid(side, side)
		maxX := uint64(4 * n)
		values := workload.Generate(workload.Zipf, g.N(), maxX, seed)
		nw := netsim.New(g, values, maxX, netsim.WithSeed(seed))
		net := NewNet(mk(nw))
		before := nw.Meter.Snapshot()
		counts := net.CountVec(core.Linear, preds, nil)
		return outcome{counts: counts, delta: nw.Meter.Since(before)}
	}

	ref := run(func(nw *netsim.Network) spantree.Ops {
		fe := spantree.NewFast(nw)
		fe.SetWorkers(1)
		return genericOps{fe}
	})
	variants := map[string]func(nw *netsim.Network) spantree.Ops{
		"fast": func(nw *netsim.Network) spantree.Ops { return spantree.NewFast(nw) },
		"fast-team": func(nw *netsim.Network) spantree.Ops {
			fe := spantree.NewFast(nw)
			fe.SetWorkers(8)
			return fe
		},
		"goroutine": func(nw *netsim.Network) spantree.Ops { return spantree.NewGoroutine(nw) },
	}
	for name, mk := range variants {
		got := run(mk)
		for i := range preds {
			if got.counts[i] != ref.counts[i] {
				t.Errorf("%s: count[%d] = %d, reference %d", name, i, got.counts[i], ref.counts[i])
			}
		}
		if got.delta != ref.delta {
			t.Errorf("%s: meter %+v != reference %+v", name, got.delta, ref.delta)
		}
	}
}

// TestCountVecHugeDomain: a probe chain whose threshold deltas need the
// full 64-bit width — far-apart quantile probes on a 2⁶³ domain — must
// broadcast and count without tripping the 6-bit delta-width field (the
// width is stored as width−1 on both the broadcast and convergecast side).
func TestCountVecHugeDomain(t *testing.T) {
	g := topology.Grid(4, 4)
	maxX := uint64(1) << 63
	values := make([]uint64, g.N())
	for i := range values {
		if i%2 == 0 {
			values[i] = uint64(i)
		} else {
			values[i] = maxX - uint64(i)
		}
	}
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	net := NewNet(spantree.NewFast(nw))
	preds := []wire.Pred{wire.Less(1), wire.Less(maxX/2 + 1), wire.Less(maxX + 1)}
	got := net.CountVec(core.Linear, preds, nil)
	for i, p := range preds {
		if want := net.Count(core.Linear, p); got[i] != want {
			t.Errorf("pred %d (%s): CountVec %d != Count %d", i, p, got[i], want)
		}
	}
}

// TestChainFirstMatchTopValue: an item worth exactly 2⁶⁴−1 satisfies TRUE
// but no strict-less probe; the chain search must count it under the
// trailing TRUE slot (and must NOT count it under a genuine Less(2⁶⁴−1)).
// Beyond that pinned pair, the branch-free search is held to sort.Search
// over the predicates themselves on generated (chain, v) pairs of every
// chain length the probe plane builds.
func TestChainFirstMatchTopValue(t *testing.T) {
	node := &netsim.Node{Items: []netsim.Item{{Cur: ^uint64(0), Active: true}}}
	withTrue := &countVecCombiner{
		domain: core.Linear, nested: true,
		preds: []wire.Pred{wire.Less(5), wire.True()},
	}
	withTrue.chain = buildChain(withTrue.preds, nil)
	dst := make([]uint64, 2)
	withTrue.LocalVec(node, dst)
	if dst[0] != 0 || dst[1] != 1 {
		t.Errorf("TRUE-topped chain counted %v, want [0 1]", dst)
	}

	lessTop := &countVecCombiner{
		domain: core.Linear, nested: true,
		preds: []wire.Pred{wire.Less(5), wire.Less(^uint64(0))},
	}
	lessTop.chain = buildChain(lessTop.preds, nil)
	lessTop.LocalVec(node, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("Less(2^64-1) chain counted %v, want [0 0]", dst)
	}

	rng := rand.New(rand.NewPCG(24, 0xc4a1))
	for pair := 0; pair < 10000; pair++ {
		k := 1 + rng.IntN(64)
		shift := rng.UintN(64) // chains crowded into every prefix of the domain
		preds := make([]wire.Pred, k)
		for i := range preds {
			preds[i] = wire.Less(rng.Uint64() >> shift)
		}
		switch rng.IntN(4) {
		case 0:
			preds[rng.IntN(k)].A = ^uint64(0) // sorts last: a genuine Less(2⁶⁴−1)
		case 1:
			preds[k-1].A = ^uint64(0) // placeholder the TRUE top overwrites below
		}
		slices.SortFunc(preds, func(a, b wire.Pred) int { return cmp.Compare(a.A, b.A) })
		trueTop := rng.IntN(2) == 0
		if trueTop {
			preds[k-1] = wire.True()
		}
		c := &countVecCombiner{domain: core.Linear, nested: true, preds: preds}
		c.chain = buildChain(preds, nil)
		v := rng.Uint64() >> shift
		switch rng.IntN(4) {
		case 0:
			v = ^uint64(0)
		case 1:
			v = preds[rng.IntN(k)].A // on a threshold: strict-less must not match it
		}
		want := sort.Search(k, func(i int) bool { return preds[i].Eval(v) })
		if got := c.chainFirstMatch(v); got != want {
			t.Fatalf("chainFirstMatch(%d) over %v = %d, first matching probe is %d", v, preds, got, want)
		}
	}
}

// TestVecBitsMatchesAppendVec: VecBits is the arithmetic charge of the
// reliable direct path; it must equal the emitted AppendVec length bit for
// bit, for both combiners, every encoding mode, and a battery of partials
// (including the round-trip through DecodeVec).
func TestVecBitsMatchesAppendVec(t *testing.T) {
	vectors := [][]uint64{
		{0, 0, 0, 0},
		{1, 1, 2, 4096},
		{3, 3, 3, 3},
		{0, 1, 1000, 123456789},
		{0, 1 << 63}, // delta width 64: the 6-bit field's top value
		{42},
	}
	combiners := map[string]spantree.VecCombiner{
		"countvec-nested": &countVecCombiner{nested: true},
		"countvec-plain":  &countVecCombiner{},
	}
	for name, c := range combiners {
		for _, p := range vectors {
			w := bitio.NewWriter(64)
			cc := *(c.(*countVecCombiner))
			cc.preds = make([]wire.Pred, len(p))
			cc.AppendVec(w, p)
			if got := cc.VecBits(p); got != w.Len() {
				t.Errorf("%s %v: VecBits %d != AppendVec %d", name, p, got, w.Len())
			}
			dst := make([]uint64, len(p))
			if err := cc.DecodeVec(wire.FromWriter(w), dst); err != nil {
				t.Fatalf("%s %v: decode: %v", name, p, err)
			}
			for i := range p {
				if dst[i] != p[i] {
					t.Errorf("%s %v: round trip gave %v", name, p, dst)
				}
			}
		}
	}
	fc := &fusedCombiner{width: 13}
	for _, p := range [][]uint64{
		{0, 0, ^uint64(0), 0},
		{5, 1234, 7, 999},
		{1, 0, 0, 0},
	} {
		w := bitio.NewWriter(64)
		fc.AppendVec(w, p)
		if got := fc.VecBits(p); got != w.Len() {
			t.Errorf("fused %v: VecBits %d != AppendVec %d", p, got, w.Len())
		}
		dst := make([]uint64, fusedWidth)
		if err := fc.DecodeVec(wire.FromWriter(w), dst); err != nil {
			t.Fatalf("fused %v: decode: %v", p, err)
		}
		for i := range p {
			if dst[i] != p[i] {
				t.Errorf("fused %v: round trip gave %v", p, dst)
			}
		}
	}
}

// TestSumChargeRefusesGammaOverflow: SUM and COUNT are charged from VecBits
// on the reliable path, so a partial sum of exactly 2⁶⁴−1 — which the
// gamma code cannot carry — must fail the arithmetic charge the way it
// fails the encoding, on the combiner and through a whole sweep on either
// path.
func TestSumChargeRefusesGammaOverflow(t *testing.T) {
	overflows := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != "bitio: gamma overflow" {
				t.Errorf("%s: recovered %v, want the gamma overflow panic", what, r)
			}
		}()
		f()
	}
	top := []uint64{^uint64(0)}
	overflows("sumCombiner.VecBits", func() { sumCombiner{}.VecBits(top) })
	overflows("sumCombiner.AppendVec", func() { sumCombiner{}.AppendVec(bitio.NewWriter(8), top) })
	overflows("sumCombiner.FoldVec", func() {
		sumCombiner{pred: wire.True()}.FoldVec(&netsim.Node{}, make([]uint64, 1), []uint64{^uint64(0) - 5, 5})
	})
	for _, generic := range []bool{false, true} {
		// Two leaves under the root of a line: the middle node's partial sum
		// is (2⁶⁴−3) + 2.
		nw := netsim.New(topology.Line(3), []uint64{0, 2, ^uint64(0) - 2}, ^uint64(0), netsim.WithSeed(1))
		var ops spantree.Ops = spantree.NewFast(nw)
		if generic {
			ops = genericOps{ops}
		}
		overflows(fmt.Sprintf("Net.Sum generic=%v", generic), func() { NewNet(ops).Sum(core.Linear, wire.True()) })
	}
}

// TestChainDeltaWidthMatchesPerSlot holds the OR-based width to the
// definition it replaced — the maximum over the delta slots of each one's
// own width — on the edge shapes (single slot, all-zero deltas, one
// full-uint64 delta) and on generated histograms of every bucket magnitude.
func TestChainDeltaWidthMatchesPerSlot(t *testing.T) {
	perSlot := func(p []uint64) int {
		wmax := 1
		for _, v := range p[1:] {
			if wd := bitio.WidthOf(v); wd > wmax {
				wmax = wd
			}
		}
		return wmax
	}
	cases := [][]uint64{
		{7}, {0, 0, 0}, {9, 0, 0, 0}, {0, ^uint64(0)}, {1, 0, ^uint64(0) - 2},
		{0, 1, 1, 2, 4}, {5, 1, 1<<40 - 6, 1}, {^uint64(0) - 1, 3, 2, 1},
	}
	x := uint64(1)
	for len(cases) < 2000 {
		p := make([]uint64, 1+len(cases)%17)
		for i := range p {
			x = x*6364136223846793005 + 1442695040888963407
			p[i] = x >> (x >> 58) // buckets of every magnitude
		}
		cases = append(cases, p)
	}
	for _, p := range cases {
		if got, want := chainDeltaWidth(p), perSlot(p); got != want {
			t.Fatalf("chainDeltaWidth(%v) = %d, per-slot maximum %d", p, got, want)
		}
	}
}

// TestMultiAggregateMatchesSeparate: the fused vector sweep must report
// exactly what the four separate Fact 2.1 protocols report, with and
// without a predicate.
func TestMultiAggregateMatchesSeparate(t *testing.T) {
	net := vecTestNet(256, 11)
	for _, pred := range []wire.Pred{wire.True(), wire.InRange(100, 800), wire.Less(1)} {
		count, sum, lo, hi, ok := net.MultiAggregate(core.Linear, pred)
		wantCount := net.Count(core.Linear, pred)
		wantSum := net.Sum(core.Linear, pred)
		if wantCount == 0 {
			if ok {
				t.Errorf("pred %s: fused ok for empty selection", pred)
			}
			continue
		}
		if !ok {
			t.Fatalf("pred %s: fused not ok with %d matching items", pred, wantCount)
		}
		if count != wantCount || sum != wantSum {
			t.Errorf("pred %s: fused count/sum %d/%d, want %d/%d", pred, count, sum, wantCount, wantSum)
		}
		// min/max over the selection: check against a filtered MinMax.
		net.Filter(pred)
		wantLo, wantHi, _ := net.MinMax(core.Linear)
		net.Reset()
		if lo != wantLo || hi != wantHi {
			t.Errorf("pred %s: fused min/max %d/%d, want %d/%d", pred, lo, hi, wantLo, wantHi)
		}
	}
}

// TestNestedProtocolPanics: the Net's broadcast writer and combiner boxes
// are single-use per protocol; a protocol nested inside another's window
// must trip the reentrancy assertion instead of silently corrupting the
// outer payload.
func TestNestedProtocolPanics(t *testing.T) {
	side := 8
	g := topology.Grid(side, side)
	maxX := uint64(256)
	values := workload.Generate(workload.Uniform, g.N(), maxX, 1)
	nw := netsim.New(g, values, maxX, netsim.WithSeed(1))
	ops := &nestingOps{Ops: spantree.NewFast(nw)}
	net := NewNet(ops)
	ops.net = net

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("nested protocol did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "nested protocol") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	net.Count(core.Linear, wire.True())
}

// nestingOps wraps an engine and issues a nested protocol from inside the
// first broadcast — the reuse hazard the reentrancy assertion guards.
type nestingOps struct {
	spantree.Ops
	net *Net
}

func (o *nestingOps) Broadcast(p wire.Payload, apply spantree.Applier) {
	o.Ops.Broadcast(p, apply)
	if o.net != nil {
		net := o.net
		o.net = nil // nest exactly once
		net.Count(core.Linear, wire.True())
	}
}

// TestProbeSetBitsMatchesBroadcast: ProbeSetBits — the price the robust
// tier's relay hop puts on a probe-set announce — is the length
// appendProbeSet writes, for generated chains (TRUE-topped or not, over
// small and full-word domains) and unnested probe sets alike.
func TestProbeSetBitsMatchesBroadcast(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 0xf4a))
	for round := 0; round < 2000; round++ {
		k := 1 + rng.IntN(64)
		full := round%2 == 0
		var preds []wire.Pred
		switch round % 3 {
		case 0, 1:
			preds = oracleChain(rng, k, round%3 == 1, full)
		default:
			preds = make([]wire.Pred, k)
			for i := range preds {
				a := rng.Uint64N(1 << 11)
				preds[i] = []wire.Pred{wire.Less(a), wire.GreaterEq(a), wire.InRange(a/2, a), wire.True()}[rng.IntN(4)]
			}
		}
		vw := []int{11, 21, 64}[rng.IntN(3)]
		if full {
			vw = 64
		}
		w := bitio.NewWriter(64)
		(&Net{}).appendProbeSet(w, preds, vw)
		if got := ProbeSetBits(preds, vw); got != w.Len() {
			t.Fatalf("ProbeSetBits(%v, %d) = %d, appendProbeSet wrote %d", preds, vw, got, w.Len())
		}
	}
}
