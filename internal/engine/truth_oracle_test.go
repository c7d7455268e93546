package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// This file is the ground-truth oracle. The reference below is the engine's
// truth as it was computed before it was derived from the run network on
// demand, kept verbatim: a copied population (AllItems on the full view,
// survivingItems on a healed one), a pdqsorted copy of it, and the truth
// expressions of the engine's answer paths. The on-demand groundTruth — and
// every exact kind's Truth, Truths and Exact through Submit — is held to it
// over generated deployments, values and views.

// survivingItems collects the items of the nodes the healed view covers —
// the ground-truth population for a post-repair query.
func survivingItems(nw *netsim.Network, view *spantree.TreeView) []uint64 {
	out := make([]uint64, 0, len(view.Order))
	for _, nd := range nw.Nodes {
		if !view.Includes(nd.ID) {
			continue
		}
		for _, it := range nd.Items {
			out = append(out, it.Orig)
		}
	}
	return out
}

// refPopulation is the reference population of view: AllItems when the
// run did not heal, survivingItems when it did.
func refPopulation(nw *netsim.Network, hr *spantree.HealResult) []uint64 {
	if hr == nil {
		return nw.AllItems()
	}
	return survivingItems(nw, hr.View)
}

// refSortedCopy returns an ascending copy of values (pdqsort).
func refSortedCopy(values []uint64) []uint64 {
	s := make([]uint64, len(values))
	copy(s, values)
	slices.Sort(s)
	return s
}

// refTruth is the simulator-side truth over a run's surviving items, each
// part computed on first use.
type refTruth struct {
	values      []uint64
	sortedCache []uint64
	totalled    bool
	sum, lo, hi uint64
}

func (g *refTruth) sorted() []uint64 {
	if g.sortedCache == nil {
		g.sortedCache = refSortedCopy(g.values)
	}
	return g.sortedCache
}

// aggregate is the truth of one Fact 2.1 aggregate (count|sum|min|max|avg).
func (g *refTruth) aggregate(name string) float64 {
	if !g.totalled && len(g.values) > 0 {
		g.totalled = true
		g.lo, g.hi = g.values[0], g.values[0]
		for _, v := range g.values {
			g.sum += v
			g.lo, g.hi = min(g.lo, v), max(g.hi, v)
		}
	}
	switch name {
	case "count":
		return float64(len(g.values))
	case "sum":
		return float64(g.sum)
	case "min":
		return float64(g.lo)
	case "max":
		return float64(g.hi)
	}
	return float64(g.sum) / float64(len(g.values)) // avg
}

// refTruths is the reference engine's truth for q (defaults resolved) over
// the population values: Truth, and Truths for the multi-valued kinds.
func refTruths(q Query, values []uint64) (float64, []float64) {
	g := &refTruth{values: values}
	sorted := g.sorted
	var truths []float64
	switch q.Kind {
	case KindMedian, KindApxMedian, KindApxMedian2, KindQDigest, KindGK, KindSampling, KindCollectAll:
		return float64(core.TrueMedian(sorted())), nil
	case KindOrderStat, KindQuantile:
		k := q.K
		if q.Kind == KindQuantile {
			k = core.QuantileRank(q.Phi, uint64(len(values)))
		}
		if k == 0 {
			k = uint64((len(values) + 1) / 2)
		}
		return float64(core.TrueOrderStatistic(sorted(), int(k))), nil
	case KindQuantiles:
		for _, phi := range q.Phis {
			k := core.QuantileRank(phi, uint64(len(values)))
			truths = append(truths, float64(core.TrueOrderStatistic(sorted(), int(k))))
		}
		return truths[0], truths
	case KindFused:
		for _, a := range q.Aggs {
			truths = append(truths, g.aggregate(a))
		}
		return truths[0], truths
	case KindMin:
		return float64(sorted()[0]), nil
	case KindMax:
		return float64(sorted()[len(values)-1]), nil
	case KindCount:
		return float64(len(values)), nil
	case KindSum:
		return g.aggregate("sum"), nil
	case KindAvg:
		return g.aggregate("avg"), nil
	case KindDistinct, KindApxDistinct:
		return float64(core.TrueDistinct(values)), nil
	}
	panic("refTruths: no reference truth for kind " + q.Kind)
}

// requireTruths checks an answer's truth fields against the reference over
// pop: Truth and Truths equal, and Exact set iff every value equals its
// truth.
func requireTruths(t *testing.T, label string, q Query, value float64, values []float64, truth float64, truths []float64, exact bool, pop []uint64) {
	t.Helper()
	want, wants := refTruths(q.WithDefaults(), pop)
	if truth != want || !slices.Equal(truths, wants) {
		t.Errorf("%s: truth %v %v, reference %v %v", label, truth, truths, want, wants)
		return
	}
	wantExact := value == want
	if len(wants) > 0 {
		wantExact = slices.Equal(values, wants)
	}
	if exact != wantExact {
		t.Errorf("%s: exact %v for value %v %v against truth %v %v", label, exact, value, values, want, wants)
	}
}

// oracleTopologies are the deployment shapes the oracle draws: a grid, a
// line (one deep chain), a barbell (two cliques on a bridge) and a random
// geometric graph. Every size keeps the population above the sort's
// comparison-sort cutoff, so the radix path is the one exercised.
var oracleTopologies = []struct {
	kind string
	n    int
}{{"grid", 400}, {"line", 300}, {"barbell", 300}, {"rgg", 300}}

// oracleItems draws every node's readings: one uniform, one zipf or one
// duplicate-heavy reading per node, several readings per node (some
// nodes none), or a wide domain whose few large readings vary the top
// radix digit. It returns the readings and the domain bound.
func oracleItems(dist string, n int, seed uint64) ([][]uint64, uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x7a11))
	maxX := uint64(4 * n)
	items := make([][]uint64, n)
	switch dist {
	case "uniform", "zipf":
		for i, v := range workload.Generate(workload.Kind(dist), n, maxX, seed) {
			items[i] = []uint64{v}
		}
	case "dups":
		for i := range items {
			items[i] = []uint64{maxX/3 + rng.Uint64N(3)}
		}
	case "multi":
		for i := range items {
			for k := rng.IntN(4); k > 0; k-- {
				items[i] = append(items[i], rng.Uint64N(maxX+1))
			}
		}
	case "wide":
		maxX = 1 << 57
		for i := range items {
			v := rng.Uint64N(uint64(4 * n))
			if rng.IntN(40) == 0 {
				v |= 1 << 56
			}
			items[i] = []uint64{v}
		}
	default:
		panic("oracleItems: unknown distribution " + dist)
	}
	return items, maxX
}

// oracleView attaches the fault plan that shapes the named view to nw and
// returns the view with its heal (nil on the full view): the full tree, a
// tree healed around crashes and dead links, a tree re-healed after a
// mid-sweep strike, or one healed around quarantined nodes.
func oracleView(t *testing.T, nw *netsim.Network, view string, seed uint64) (*spantree.TreeView, *spantree.HealResult) {
	t.Helper()
	var fe *spantree.FastEngine
	var hr *spantree.HealResult
	var err error
	switch view {
	case "full":
		return spantree.NewFast(nw).View(), nil
	case "healed":
		nw.Faults = faults.New(faults.Spec{Crash: 0.1, LinkFail: 0.04}, nw.N(), nw.Root(), seed)
		fe, hr, err = spantree.NewFastHealed(nw)
	case "rehealed":
		nw.Faults = faults.New(faults.Spec{Crash: 0.04, MidAt: 1, MidCrash: 0.12}, nw.N(), nw.Root(), seed)
		if _, _, err = spantree.NewFastHealed(nw); err == nil {
			for !nw.Faults.PhaseFired() {
				nw.Faults.Tick()
			}
			hr, _, err = spantree.HealRerooted(nw)
		}
	case "quarantined":
		nw.Faults = faults.New(faults.Spec{}, nw.N(), nw.Root(), seed)
		rng := rand.New(rand.NewPCG(seed, 0xb42))
		for q := nw.N() / 15; q > 0; q-- {
			nw.Faults.Quarantine(topology.NodeID(rng.IntN(nw.N())))
		}
		fe, hr, err = spantree.NewFastHealed(nw)
	default:
		t.Fatalf("unknown view %q", view)
	}
	if err != nil {
		t.Fatal(err)
	}
	if fe != nil && fe.View() != hr.View {
		t.Fatal("healed engine does not run over its heal's view")
	}
	return hr.View, hr
}

// oracleQueries are the exact kinds' queries the oracle asks of every
// population (defaults resolved, as the engine runs them).
func oracleQueries(rng *rand.Rand, n uint64) []Query {
	qs := []Query{
		{Kind: KindMedian},
		{Kind: KindOrderStat},
		{Kind: KindOrderStat, K: 1 + rng.Uint64N(n)},
		{Kind: KindQuantile, Phi: 0.01 + 0.99*rng.Float64()},
		{Kind: KindQuantiles, Phis: []float64{0.05, rng.Float64()*0.9 + 0.1, 1}},
		{Kind: KindFused},
		{Kind: KindFused, Aggs: []string{"avg", "max", "count", "min", "sum"}},
		{Kind: KindMin}, {Kind: KindMax}, {Kind: KindCount}, {Kind: KindSum}, {Kind: KindAvg},
	}
	for i := range qs {
		qs[i] = qs[i].WithDefaults()
	}
	return qs
}

// TestGroundTruthMatchesReference holds the on-demand truth to the
// reference directly, over every topology × value distribution × view:
// size, Σ/min/max, the sorted population and the distinct count, and every
// exact kind's truths through both answer paths — fusedAnswer, with the
// items' current values and active flags scrambled as a zoom or filter
// stage leaves them (the truth reads original readings only), and
// executeKind, running the protocol over the view and asserting the answer
// exact.
func TestGroundTruthMatchesReference(t *testing.T) {
	t.Parallel()
	views := []string{"full", "healed", "rehealed", "quarantined"}
	dists := []string{"uniform", "zipf", "dups", "multi", "wide"}
	for ti, topo := range oracleTopologies {
		for di, dist := range dists {
			for vi, view := range views {
				seed := uint64(1 + 100*ti + 10*di + vi)
				t.Run(fmt.Sprintf("%s/%s/%s", topo.kind, dist, view), func(t *testing.T) {
					t.Parallel()
					g, err := topology.Build(topo.kind, topo.n, seed)
					if err != nil {
						t.Fatal(err)
					}
					items, maxX := oracleItems(dist, g.N(), seed)
					nw := netsim.NewMulti(g, items, maxX, netsim.WithSeed(seed))
					v, hr := oracleView(t, nw, view, seed)
					pop := refPopulation(nw, hr)
					if len(pop) == 0 {
						t.Fatal("empty population — pick another seed")
					}
					checkTruth(t, nw, v, pop, seed)
				})
			}
		}
	}
}

// checkTruth holds the truth over view's nodes of nw to the reference over
// pop, the population the reference derived for that view.
func checkTruth(t *testing.T, nw *netsim.Network, view *spantree.TreeView, pop []uint64, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x0a11))
	queries := oracleQueries(rng, uint64(len(pop)))

	// Scramble what protocols may change; the truth must not see it.
	for _, u := range view.Order {
		for i := range nw.Nodes[u].Items {
			it := &nw.Nodes[u].Items[i]
			it.Cur, it.Active = rng.Uint64N(nw.MaxX+1), rng.IntN(2) == 0
		}
	}
	truth := &groundTruth{nw: nw, view: view}
	ref := &refTruth{values: pop}
	if truth.count() != uint64(len(pop)) {
		t.Fatalf("population %d, reference %d", truth.count(), len(pop))
	}
	for _, a := range []string{"count", "sum", "min", "max", "avg"} {
		if got, want := truth.aggregate(a), ref.aggregate(a); got != want {
			t.Errorf("%s truth %v, reference %v", a, got, want)
		}
	}
	if float64(truth.totals().lo) != ref.aggregate("min") || float64(truth.totals().hi) != ref.aggregate("max") {
		t.Errorf("extrema %d..%d, reference %v..%v", truth.lo, truth.hi, ref.aggregate("min"), ref.aggregate("max"))
	}
	if !slices.Equal(truth.sorted(), ref.sorted()) {
		t.Error("sorted population differs from the reference")
	}
	if got, want := truth.distinct(), uint64(core.TrueDistinct(pop)); got != want {
		t.Errorf("distinct %d, reference %d", got, want)
	}
	for _, q := range queries {
		mb, err := kindOf(q.Kind).slot(q, truth.count())
		if err != nil {
			t.Fatalf("slot %s: %v", q, err)
		}
		mr := memberResult{values: make([]uint64, len(mb.ranks)), aggValues: make([]float64, len(mb.aggs))}
		o := outcome{truth: truth}
		var r Result
		o.answer(&r, &mb, &mr, "")
		resultFrom(&r, Spec{}, q, netsim.Delta{}, 0)
		requireTruths(t, "fused "+q.String(), q, r.Value, r.Values, r.Truth, r.Truths, r.Exact, pop)
	}

	// The solo path runs the protocol itself, over clean items.
	nw.ResetItems()
	fe := spantree.NewFastView(nw, view)
	for _, q := range append(queries, Query{Kind: KindDistinct}.WithDefaults()) {
		r, err := soloOn(nw, Spec{}, q, fe, agg.NewNet(fe))
		if err != nil {
			t.Fatalf("solo %s: %v", q, err)
		}
		requireTruths(t, "solo "+q.String(), q, r.Value, r.Values, r.Truth, r.Truths, r.Exact, pop)
		if !r.Exact {
			t.Errorf("solo %s: answer %v %v is not exact over the view", q, r.Value, r.Values)
		}
	}
}

// oracleFaults are the fault plans of the Submit-level oracle, each
// shaping one view: none (the full tree), crashes and dead links (a healed
// tree), a mid-sweep strike (re-healed and resumed), and persistent liars
// (robust queries, healed around the quarantined ones).
var oracleFaults = []struct {
	name   string
	faults faults.Spec
	retry  Retry
	robust bool
}{
	{name: "full"},
	{name: "healed", faults: faults.Spec{Crash: 0.08, LinkFail: 0.03}},
	{name: "rehealed", faults: faults.Spec{Crash: 0.03, MidAt: 2, MidCrash: 0.1}, retry: Retry{Budget: 2}},
	{name: "robust", faults: faults.Spec{Byz: 0.05, Seed: 3}, robust: true},
}

// oracleJobs returns the queries a case submits: every exact kind the
// case's plan supports, ranks drawn within the smallest population n the
// case can end with, plus — on unphased plain runs — the approximate tree
// kinds, whose truth is the median's or the distinct count's.
func oracleJobs(spec Spec, robust bool, n uint64, rng *rand.Rand) []Job {
	var qs []Query
	for _, q := range oracleQueries(rng, n) {
		q.Robust = robust
		qs = append(qs, q)
	}
	if !robust && !spec.Faults.Phased() {
		for _, k := range []string{KindDistinct, KindApxMedian, KindQDigest, KindGK, KindSampling, KindCollectAll, KindApxDistinct} {
			qs = append(qs, Query{Kind: k})
		}
	}
	jobs := make([]Job, len(qs))
	for i, q := range qs {
		jobs[i] = Job{ID: fmt.Sprint(i), Spec: spec, Query: q}
	}
	return jobs
}

// oraclePopulations replicates a case's survivor populations independently
// of the engine, from a fresh session's fork: before a mid-sweep strike
// (every run of an unphased plan) and after it (the re-healed view of a
// run that retried).
func oraclePopulations(t *testing.T, spec Spec, robust bool) (pre, post []uint64) {
	t.Helper()
	nw, err := NewSession().Instantiate(spec, spec.Normalize().Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	fe, hr, err := spantree.NewFastHealed(nw)
	if err != nil {
		t.Fatal(err)
	}
	pre = refPopulation(nw, hr)
	if robust {
		rep, view, err := byz.Localize(nw, fe.View())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Healed != nil {
			pre = survivingItems(nw, view)
		}
	}
	if spec.Faults.Phased() {
		for !nw.Faults.PhaseFired() {
			nw.Faults.Tick()
		}
		hr, _, err := spantree.HealRerooted(nw)
		if err != nil {
			t.Fatal(err)
		}
		post = survivingItems(nw, hr.View)
	}
	return pre, post
}

// TestSubmitTruthsMatchReference holds every exact kind's Truth, Truths and
// Exact, as Submit reports them, to the reference over an independently
// replicated population: every topology × fault plan, with the value
// distribution rotating, solo and fused, on one and two workers.
func TestSubmitTruthsMatchReference(t *testing.T) {
	t.Parallel()
	dists := []string{"uniform", "zipf", "fewdistinct"}
	for ti, topo := range oracleTopologies {
		for fi, fc := range oracleFaults {
			spec := Spec{
				Topology: topo.kind, N: topo.n, Workload: dists[(ti+fi)%len(dists)],
				Seed: uint64(7 + 10*ti + fi), Faults: fc.faults, Retry: fc.retry,
			}
			t.Run(fmt.Sprintf("%s/%s/%s", topo.kind, spec.Workload, fc.name), func(t *testing.T) {
				t.Parallel()
				pre, post := oraclePopulations(t, spec, fc.robust)
				n := len(pre)
				if post != nil {
					n = min(n, len(post))
				}
				jobs := oracleJobs(spec, fc.robust, uint64(n), rand.New(rand.NewPCG(spec.Seed, 1)))
				for _, workers := range []int{1, 2} {
					e := New(Options{Workers: workers})
					e.treeWorkers = workers
					for _, fused := range []bool{false, true} {
						var opts []SubmitOption
						if fused {
							opts = append(opts, WithFusion())
						}
						for i, r := range e.Submit(context.Background(), jobs, opts...) {
							label := fmt.Sprintf("workers=%d fused=%v %s", workers, fused, jobs[i].Query)
							if r.Failed() {
								t.Errorf("%s: %s", label, r.Error)
								continue
							}
							if r.Degraded {
								t.Errorf("%s: degraded with retry budget left", label)
								continue
							}
							pop := pre
							if r.Retries > 0 {
								pop = post
							}
							requireTruths(t, label, r.Query, r.Value, r.Values, r.Truth, r.Truths, r.Exact, pop)
						}
					}
				}
			})
		}
	}
}
