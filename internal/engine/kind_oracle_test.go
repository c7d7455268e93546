package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"sensoragg/internal/agg"
	"sensoragg/internal/ams"
	"sensoragg/internal/baseline"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/distinct"
	"sensoragg/internal/faults"
	"sensoragg/internal/gk"
	"sensoragg/internal/gossip"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/qdigest"
	"sensoragg/internal/sampling"
	"sensoragg/internal/singlehop"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// This file is the kind table's oracle. At the bottom, verbatim from the
// engine before the table replaced them, are the per-kind switches and
// predicates — executeKind, fusedMemberFor, fusedAnswer, degradedAnswer,
// fusableKind, robustKind, usesTree, faultSupport and Kinds, with the
// member types they spoke — each prefixed "oracle". The table is held to
// them: its flags and fault-plan verdicts for every kind and fault class,
// and over generated deployments, views and queries, every solo answer
// field, error text and per-node meter, every batch slot, and every fused
// and degraded answer. One adaptation: the avg case runs SUM then COUNT
// itself, as the Average methods it called did, since the engine's
// aggregator no longer lists Average and byz.RobustNet no longer has it.

// soloOn answers q alone on plane net over fe's view of nw: the unit
// runner once prepare has readied the run, with no metering and no audit
// record.
func soloOn(nw *netsim.Network, spec Spec, q Query, fe *spantree.FastEngine, net aggregator) (Result, error) {
	r := run{nw: nw, spec: spec, q: q, fe: fe, net: net, truth: groundTruth{nw: nw, view: fe.View()}, before: nw.Meter.Snapshot()}
	var res [1]Result
	New(Options{Workers: 1}).answer(context.Background(), &r, []Job{{Spec: spec, Query: q}}, plan{}, []int{0}, res[:], time.Time{})
	if res[0].Failed() {
		return Result{}, errors.New(res[0].Error)
	}
	resultFrom(&res[0], spec, q, netsim.Delta{}, 0)
	res[0].Robust, res[0].Suspected, res[0].IntegrityBound = false, 0, 0
	return res[0], nil
}

// oracleFaultClasses are the fault plans the verdicts are compared under,
// one per class and the phased classes mixed with the others.
var oracleFaultClasses = []struct {
	name string
	fs   faults.Spec
}{
	{"drop", faults.Spec{Drop: 0.05}},
	{"dup", faults.Spec{Dup: 0.05}},
	{"crash", faults.Spec{Crash: 0.05}},
	{"linkfail", faults.Spec{LinkFail: 0.05}},
	{"byz", faults.Spec{Byz: 0.05}},
	{"phased-crash", faults.Spec{MidAt: 2, MidCrash: 0.05}},
	{"phased-linkfail", faults.Spec{MidAt: 2, MidLinkFail: 0.05}},
	{"phased-rootkill", faults.Spec{MidAt: 2, MidKillRoot: true}},
	{"phased+crash", faults.Spec{Crash: 0.02, MidAt: 3, MidCrash: 0.05}},
	{"phased+drop", faults.Spec{Drop: 0.02, MidAt: 3, MidCrash: 0.05}},
}

// TestKindTableFlagsMatchOracle holds every entry's flags and fault-plan
// verdicts to the predicates they replaced — and an unknown kind to the
// default arms — and Kinds() to its old literal.
func TestKindTableFlagsMatchOracle(t *testing.T) {
	if got, want := Kinds(), oracleKinds(); !slices.Equal(got, want) {
		t.Fatalf("Kinds() = %v, oracle %v", got, want)
	}
	for _, name := range append(Kinds(), "nope") {
		k := kindOf(name)
		if k.tree != oracleUsesTree(name) || k.robust != oracleRobustKind(name) ||
			(k.member != nil) != oracleFusableKind(name) || (k.plans == plansRetry) != oracleFusableKind(name) {
			t.Errorf("%s: tree %v robust %v fusable %v retry %v, oracle tree %v robust %v fusable %v",
				name, k.tree, k.robust, k.member != nil, k.plans == plansRetry,
				oracleUsesTree(name), oracleRobustKind(name), oracleFusableKind(name))
		}
		aggregate := k.member != nil && !slices.Contains(selectionKinds, name)
		if (k.member != nil) != (k.batchDetail != nil) || aggregate != (k.alone != nil) || (k.member != nil) == (k.solo != nil) {
			t.Errorf("%s: a fusable kind has a slot and a batch detail, an aggregate kind an alone arm (a selection runs alone as a batch of one); any other kind a solo arm", name)
		}
		if k.solo != nil && k.truth == nil && name != "nope" {
			t.Errorf("%s: a solo arm names its truth", name)
		}
		for _, fc := range oracleFaultClasses {
			if got, want := errText(k.faultSupport(fc.fs)), errText(oracleFaultSupport(name, fc.fs)); got != want {
				t.Errorf("%s under %s: %q, oracle %q", name, fc.name, got, want)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// oracleKindTopologies are the deployment shapes the table oracle draws;
// the complete graph is there for singlehop.
var oracleKindTopologies = []struct {
	kind string
	n    int
}{{"grid", 121}, {"line", 100}, {"star", 100}, {"barbell", 100}, {"rgg", 120}, {"complete", 40}}

// oracleKindViews shape the views a case runs over: the full tree, one
// healed around crashes and dead links, one re-healed after a mid-sweep
// strike, and the full tree under lossy delivery.
var oracleKindViews = []string{"full", "healed", "rehealed", "lossy"}

// kindCaseNet builds one side of a case: the deployment's network with the
// view's fault plan attached, and the engine over that view.
func kindCaseNet(t *testing.T, g *topology.Graph, items [][]uint64, maxX uint64, view string, seed uint64) (*netsim.Network, *spantree.FastEngine) {
	t.Helper()
	nw := netsim.NewMulti(g, items, maxX, netsim.WithSeed(seed))
	if view == "lossy" {
		nw.Faults = faults.New(faults.Spec{Drop: 0.03, Dup: 0.03}, nw.N(), nw.Root(), seed)
		return nw, spantree.NewFast(nw)
	}
	v, _ := oracleView(t, nw, view, seed)
	return nw, spantree.NewFastView(nw, v)
}

// oracleKindQueries draws the case's queries: every kind once with valid
// parameters, the selection kinds again at widths 1, 2 and 8 with and
// without seed windows, and the parameter errors — bad φ, empty φs, an
// unknown aggregate. Ranks stay within the population n.
func oracleKindQueries(rng *rand.Rand, n, maxX uint64) []Query {
	phi := func() float64 { return 0.01 + 0.99*rng.Float64() }
	windows := func(k int) []core.SeedWindow {
		if rng.IntN(3) == 0 {
			return nil
		}
		if rng.IntN(4) == 0 {
			k++ // a mismatched length is ignored
		}
		ws := make([]core.SeedWindow, k)
		for i := range ws {
			lo := rng.Uint64N(maxX + 1)
			ws[i] = core.SeedWindow{Lo: lo, Hi: lo + rng.Uint64N(maxX/4+1)}
		}
		return ws
	}
	var qs []Query
	for _, k := range Kinds() {
		qs = append(qs, Query{Kind: k})
	}
	for _, w := range []int{1, 2, 8} {
		qs = append(qs,
			Query{Kind: KindMedian, ProbeWidth: w, SeedWindows: windows(1)},
			Query{Kind: KindOrderStat, ProbeWidth: w, SeedWindows: windows(1)},
			Query{Kind: KindOrderStat, K: 1 + rng.Uint64N(n), ProbeWidth: w, SeedWindows: windows(1)},
			Query{Kind: KindQuantile, Phi: phi(), ProbeWidth: w, SeedWindows: windows(1)},
			Query{Kind: KindQuantiles, Phis: []float64{phi(), phi(), 1}, ProbeWidth: w, SeedWindows: windows(3)},
		)
	}
	aggs := []string{"count", "sum", "min", "max", "avg"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	qs = append(qs,
		Query{Kind: KindQuantile},
		Query{Kind: KindQuantile, Phi: 1.5},
		Query{Kind: KindQuantile, Phi: -0.25},
		Query{Kind: KindQuantiles, Phis: []float64{}},
		Query{Kind: KindQuantiles, Phis: []float64{0.5, 0}},
		Query{Kind: KindFused, Aggs: aggs[:1+rng.IntN(len(aggs))]},
		Query{Kind: KindFused, Aggs: []string{"count", "median"}},
	)
	for i := range qs {
		qs[i] = qs[i].WithDefaults()
	}
	return qs
}

// TestKindTableMatchesOracle is the table's generated-input oracle. Every
// case is a topology × view × seed; every query of the case runs twice, on
// two identically built networks — once through the table's solo path and
// once through the oracle's executeKind, plain and (for the robust kinds
// on the views the robust tier takes) over a RobustNet — and the two must
// agree on the error text and, for an answered query, on every answer
// field and every node's meter. (A failed run reports neither; a
// parameter error now precedes the protocol instead of following it.)
// Each fusable query's slot must equal the oracle's member, and its fused
// and degraded answers, over random member values, the oracle's.
func TestKindTableMatchesOracle(t *testing.T) {
	t.Parallel()
	for ti, topo := range oracleKindTopologies {
		for vi, view := range oracleKindViews {
			for s := uint64(0); s < 2; s++ {
				seed := 1 + 100*uint64(ti) + 10*uint64(vi) + s
				t.Run(fmt.Sprintf("%s/%s/%d", topo.kind, view, seed), func(t *testing.T) {
					t.Parallel()
					checkKindCase(t, topo.kind, topo.n, view, seed, s == 0)
				})
			}
		}
	}
}

// slowKinds are the kinds whose runs do not shrink with the deployment;
// each view of each topology checks them at one seed.
var slowKinds = []string{KindApxMedian2, KindGossipDistinct}

func checkKindCase(t *testing.T, topo string, n int, view string, seed uint64, slow bool) {
	g, err := topology.Build(topo, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	items, maxX := oracleItems([]string{"uniform", "zipf", "dups"}[seed%3], g.N(), seed)
	spec := Spec{Topology: topo}
	nw, fe := kindCaseNet(t, g, items, maxX, view, seed)
	rng := rand.New(rand.NewPCG(seed, 0x61d))
	pop := (&groundTruth{nw: nw, view: fe.View()}).count()
	robustViews := view != "rehealed"
	for _, q := range oracleKindQueries(rng, pop, maxX) {
		if p := nw.Faults; p != nil && oracleFaultSupport(q.Kind, p.Spec()) != nil {
			continue // execute rejects the combination before any protocol runs
		}
		if !slow && slices.Contains(slowKinds, q.Kind) {
			continue
		}
		for _, robust := range []bool{false, true} {
			if robust && (!robustViews || !oracleRobustKind(q.Kind)) {
				continue
			}
			q.Robust = robust
			label := fmt.Sprintf("%+v", q)
			nwA, feA := kindCaseNet(t, g, items, maxX, view, seed)
			nwB, feB := kindCaseNet(t, g, items, maxX, view, seed)
			var netA, netB aggregator = agg.NewNet(feA, agg.WithSketchP(q.SketchP)), agg.NewNet(feB, agg.WithSketchP(q.SketchP))
			if robust {
				netA = byz.NewRobustNet(nwA, feA.View(), byz.WithSketchP(q.SketchP))
				netB = byz.NewRobustNet(nwB, feB.View(), byz.WithSketchP(q.SketchP))
			}
			got, gerr := soloOn(nwA, spec, q, feA, netA)
			ans, werr := oracleExecuteKind(nwB, spec, q, feB, netB, &groundTruth{nw: nwB, view: feB.View()})
			if errText(gerr) != errText(werr) {
				t.Fatalf("%s: error %q, oracle %q", label, errText(gerr), errText(werr))
			}
			if want := oracleResultFrom(spec, q, ans, netsim.Delta{}, 0); gerr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: answer\n%+v\noracle\n%+v", label, got, want)
			}
			if gerr == nil && !slices.Equal(nwA.Meter.Ledger(), nwB.Meter.Ledger()) {
				t.Fatalf("%s: per-node meters diverge from the oracle's", label)
			}
		}
		if oracleFusableKind(q.Kind) {
			checkSlot(t, q, nw, fe.View(), rng)
		}
	}
}

// checkSlot holds a fusable query's batch slot, and its fused and degraded
// answers over random member values, to the oracle's.
func checkSlot(t *testing.T, q Query, nw *netsim.Network, view *spantree.TreeView, rng *rand.Rand) {
	t.Helper()
	truth := &groundTruth{nw: nw, view: view}
	mb, err := kindOf(q.Kind).slot(q, truth.count())
	omb, ok := oracleFusedMemberFor(q, truth.count())
	if (err == nil) != ok {
		t.Fatalf("%s: slot error %v, oracle ok %v", q, err, ok)
	}
	if !ok {
		return
	}
	if !reflect.DeepEqual(mb.ranks, omb.Ranks) || mb.width != omb.Width || !slices.Equal(mb.aggs, omb.Aggs) || !slices.Equal(mb.seeds, omb.Seeds) {
		t.Fatalf("%s: slot %+v, oracle %+v", q, mb, omb)
	}
	mr := memberResult{seededSweeps: rng.IntN(4), seedHit: rng.IntN(2) == 0}
	if len(mb.ranks) > 0 {
		for range mb.ranks {
			mr.values = append(mr.values, rng.Uint64N(nw.MaxX+1))
		}
	} else {
		for range mb.aggs {
			mr.aggValues = append(mr.aggValues, float64(rng.Uint64N(nw.MaxX+1)))
		}
	}
	omr := oracleFusedMemberResult{Values: mr.values, AggValues: mr.aggValues, SeededSweeps: mr.seededSweeps, SeedHit: mr.seedHit}
	o := outcome{res: batchResult{sweeps: 1 + rng.IntN(9)}, truth: truth}
	shared := fusedDetail(2+rng.IntN(9), o.res.sweeps)
	// The fusion group's runner set the schedule and seeding over the
	// oracle's answers.
	fusedResult := func(ans oracleAnswer) Result {
		r := oracleResultFrom(Spec{}, q, ans, netsim.Delta{}, 0)
		r.SharedSweeps, r.SeededSweeps, r.SeedHit = o.res.sweeps, mr.seededSweeps, mr.seedHit
		return r
	}
	assemble := func() (r Result) {
		o.answer(&r, &mb, &mr, o.detail(&mb, shared))
		resultFrom(&r, Spec{}, q, netsim.Delta{}, 0)
		return r
	}
	if got, want := assemble(), fusedResult(oracleFusedAnswer(q, omr, o.res.sweeps, shared, truth)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: fused answer\n%+v\noracle\n%+v", q, got, want)
	}
	o.degraded, o.retries, o.survivorFrac = true, rng.IntN(3), rng.Float64()
	ans := oracleDegradedAnswer(q, omr, o.retries)
	ans.retries, ans.degraded, ans.survivorFrac = o.retries, true, o.survivorFrac
	if got, want := assemble(), fusedResult(ans); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: degraded answer\n%+v\noracle\n%+v", q, got, want)
	}
}

// TestSoloSelectionMatchesBatchOfOne pins that a solo selection query and
// the same query run as a one-member batch through the batch driver are
// the same computation: values, sweeps, seeding, every node's meter and the
// error text agree for every selection kind at widths 1–16, seeded and
// not, under no faults, message faults, structural faults and liars on the
// plain tier.
func TestSoloSelectionMatchesBatchOfOne(t *testing.T) {
	t.Parallel()
	plans := []struct {
		name string
		fs   faults.Spec
	}{
		{"none", faults.Spec{}},
		{"drop+dup", faults.Spec{Drop: 0.04, Dup: 0.04}},
		{"crash+linkfail", faults.Spec{Crash: 0.05, LinkFail: 0.03}},
		{"byz", faults.Spec{Byz: 0.05}},
	}
	for _, pl := range plans {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := Spec{Topology: []string{"grid", "rgg", "barbell"}[seed-1], N: 144, Workload: "zipf", Seed: seed, Faults: pl.fs}
			t.Run(fmt.Sprintf("%s/%s", pl.name, spec.Topology), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewPCG(seed, 0xb1))
				session := NewSession()
				for _, w := range []int{2, 4, 8, 16, 1} {
					for _, q := range []Query{
						{Kind: KindMedian},
						{Kind: KindOrderStat, K: 1 + rng.Uint64N(100)},
						{Kind: KindQuantile, Phi: 0.01 + 0.99*rng.Float64()},
						{Kind: KindQuantiles, Phis: []float64{0.1, 0.5, 0.95}},
						{Kind: KindMedian, SeedWindows: []core.SeedWindow{{Lo: 300, Hi: 500}}},
						{Kind: KindQuantiles, Phis: []float64{0.25, 0.75}, SeedWindows: []core.SeedWindow{{Lo: 0, Hi: 64}, {Lo: 700, Hi: 900}}},
					} {
						q.ProbeWidth = w
						compareSoloBatchOfOne(t, session, spec, q.WithDefaults())
					}
				}
			})
		}
	}
}

func compareSoloBatchOfOne(t *testing.T, session *Session, spec Spec, q Query) {
	t.Helper()
	label := fmt.Sprintf("%s width=%d k=%d phi=%v phis=%v seeds=%v", q, q.ProbeWidth, q.K, q.Phi, q.Phis, q.SeedWindows)
	nwA, err := session.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nwA.Release()
	nwB, err := session.Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nwB.Release()

	solo, serr := New(Options{Workers: 1}).runAlone(nwA, Job{Spec: spec, Query: q}, 1)

	fe, hr, err := spantree.NewFastHealed(nwB)
	if err != nil {
		t.Fatal(err)
	}
	truth := &groundTruth{nw: nwB, view: fe.View()}
	mb, err := kindOf(q.Kind).slot(q, truth.count())
	if err != nil {
		t.Fatal(err)
	}
	members := []member{mb}
	o, berr := runBatch(context.Background(), nwB, spec, agg.NewNet(fe), []Query{q}, members, outcome{hr: hr, truth: truth}, time.Time{})
	if berr == nil {
		berr = o.res.members[0].err
	}
	if errText(serr) != errText(berr) {
		t.Fatalf("%s: solo error %q, batch of one %q", label, errText(serr), errText(berr))
	}
	if !slices.Equal(nwA.Meter.Ledger(), nwB.Meter.Ledger()) {
		t.Fatalf("%s: per-node meters of the solo run and the batch of one differ", label)
	}
	if serr != nil {
		return
	}
	var batch Result
	o.answer(&batch, &members[0], &o.res.members[0], "")
	if solo.Value != batch.Value || !slices.Equal(solo.Values, batch.Values) || solo.SharedSweeps != batch.SharedSweeps ||
		solo.SeededSweeps != batch.SeededSweeps || solo.SeedHit != batch.SeedHit {
		t.Fatalf("%s: solo %v %v in %d sweeps (%d seeded, hit %v), batch of one %v %v in %d (%d, %v)", label,
			solo.Value, solo.Values, solo.SharedSweeps, solo.SeededSweeps, solo.SeedHit,
			batch.Value, batch.Values, batch.SharedSweeps, batch.SeededSweeps, batch.SeedHit)
	}
}

// The oracle: the engine's per-kind code from before the kind table,
// verbatim but for the "oracle" prefix.

// oracleFusedMember is one query's slot in a fusion batch. Exactly one of the
// two forms is used: a selection member carries the ranks its
// SelectStepper narrows (Width probes per sweep), an aggregate member
// names the Fact 2.1 aggregates it reads off the shared rounds
// (count|sum|min|max|avg).
type oracleFusedMember struct {
	Ranks []core.BatchRank
	Width int
	Aggs  []string
	// Seeds are the member's delta-narrowing windows, one per rank (nil or
	// mismatched length → unseeded); see core.SeedWindow.
	Seeds []core.SeedWindow
}

// oracleFusedMemberResult is one member's outcome.
type oracleFusedMemberResult struct {
	// Values are a selection member's order statistics, one per rank.
	Values []uint64
	// AggValues are an aggregate member's answers, aligned with Aggs.
	AggValues []float64
	// Err reports a per-member failure (unresolvable rank, unknown
	// aggregate, context cancellation) — the same error the member's solo
	// run would report.
	Err error
	// Detached marks a member the batch's deadline expired on before its
	// search resolved: it holds no answer and should be re-run solo (the
	// engine gives detached members their own full deadline, so fusing can
	// never fail a query that would have succeeded alone).
	Detached bool
	// SeededSweeps/SeedHit report a seeded selection member's
	// delta-narrowing outcome (see core.SelectStepper).
	SeededSweeps int
	SeedHit      bool
}

// oracleRobustKind reports whether a query kind can run on the trimmed
// sector-split plane: the exact aggregates whose primitives RobustNet
// reproduces. The sketch, digest, gossip, and radio families have no
// trimmed variant (the duplicate-insensitive sketches are the byz tier's
// own cross-check layer), and statements compile to plans that may zoom
// or filter, which the capacity model does not track.
func oracleRobustKind(kind string) bool {
	switch kind {
	case KindMedian, KindOrderStat, KindQuantile, KindQuantiles,
		KindCount, KindSum, KindMin, KindMax, KindAvg, KindFused:
		return true
	}
	return false
}

// oracleUsesTree reports whether a query kind executes over the spanning tree
// (and therefore needs the self-healing repair under structural faults).
// The gossip and radio kinds run directly on the graph, and buildtree
// constructs the tree itself.
func oracleUsesTree(kind string) bool {
	switch kind {
	case KindGossip, KindGossipDistinct, KindSingleHop, KindBuildTree:
		return false
	}
	return true
}

// oracleFaultSupport rejects fault-plan/kind combinations the engine cannot
// execute honestly, with an explanation instead of a downstream protocol
// error. Tree kinds support everything (structural faults heal first);
// the graph-level gossip/radio kinds take message faults at the netsim
// boundary but have no repair story for crashes or dead links yet; the
// distributed tree construction assumes the full node set.
func oracleFaultSupport(kind string, fs faults.Spec) error {
	if kind == KindBuildTree {
		return fmt.Errorf("engine: buildtree does not support fault plans (the construction protocol assumes the full node set)")
	}
	if !oracleUsesTree(kind) && fs.Structural() {
		return fmt.Errorf("engine: %s does not support structural faults (crash/linkfail) — only tree queries self-heal; message faults (drop/dup) are fine", kind)
	}
	if fs.Phased() {
		switch {
		case kind == KindGossip || kind == KindGossipDistinct:
			// Gossip takes the mid-round fault natively: the epidemic
			// protocol keeps running over the survivors past the fire and
			// degrades gracefully without any retry machinery.
		case oracleFusableKind(kind):
			// The exact selection/aggregate tree kinds detect the
			// incomplete sweep, re-heal, and resume (see retry.go).
		default:
			return fmt.Errorf("engine: %s does not support phased (mid-sweep) fault plans — only the exact selection/aggregate tree kinds retry, and the gossip kinds degrade natively", kind)
		}
	}
	return nil
}

// oracleFusableKind reports whether a query kind can join a fusion batch: the
// exact selection family (driven by SelectStepper) and the Fact 2.1
// aggregates (answered by the shared MinMax round, the chain's top probe,
// and the CountVecSum rider). Randomized, sketch, gossip, radio, and
// statement kinds keep their private schedules.
func oracleFusableKind(kind string) bool {
	switch kind {
	case KindMedian, KindOrderStat, KindQuantile, KindQuantiles,
		KindFused, KindMin, KindMax, KindCount, KindSum, KindAvg:
		return true
	}
	return false
}

// oracleExecuteKind dispatches the query kind over the prepared execution state;
// only the order-statistic and distinct truths sort the population.
func oracleExecuteKind(nw *netsim.Network, spec Spec, q Query, ops spantree.Ops, net aggregator, truth *groundTruth) (oracleAnswer, error) {
	sorted := truth.sorted
	exactUint := func(v uint64, detail string, truth uint64) oracleAnswer {
		return oracleAnswer{value: float64(v), detail: detail, truth: float64(truth), truthKnown: true}
	}

	// seedAns transfers a seeded batch's delta-narrowing outcome onto the
	// assembled answer.
	seedAns := func(ans oracleAnswer, res core.BatchResult) oracleAnswer {
		ans.sweeps = res.Sweeps
		ans.seededSweeps = res.SeededSweeps
		ans.seedHit = res.SeedHit
		return ans
	}

	switch q.Kind {
	case KindMedian:
		// The width-1 arm (Fig. 1's bisection) is gone from the table:
		// width 1 is the stepper's schedule, as every other width.
		res, err := core.SelectRanksSeeded(net, []core.BatchRank{{Median: true}}, q.ProbeWidth, q.SeedWindows)
		if err != nil {
			return oracleAnswer{}, err
		}
		return seedAns(exactUint(res.Values[0],
			fmt.Sprintf("%d k-ary sweeps (width %d)", res.Sweeps, q.ProbeWidth),
			core.TrueMedian(sorted())), res), nil

	case KindOrderStat, KindQuantile:
		k := q.K
		if q.Kind == KindQuantile {
			if q.Phi <= 0 || q.Phi > 1 {
				return oracleAnswer{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", q.Phi)
			}
			k = core.QuantileRank(q.Phi, truth.count())
		}
		if k == 0 {
			k = (truth.count() + 1) / 2
		}
		// As for the median, the width-1 arm is gone.
		res, err := core.SelectRanksSeeded(net, []core.BatchRank{{K: k}}, q.ProbeWidth, q.SeedWindows)
		if err != nil {
			return oracleAnswer{}, err
		}
		return seedAns(exactUint(res.Values[0],
			fmt.Sprintf("rank %d, %d k-ary sweeps (width %d)", k, res.Sweeps, q.ProbeWidth),
			core.TrueOrderStatistic(sorted(), int(k))), res), nil

	case KindQuantiles:
		if len(q.Phis) == 0 {
			return oracleAnswer{}, fmt.Errorf("engine: quantiles requires at least one phi")
		}
		// Ranks are φ-resolved against the protocol-counted N inside the
		// search (folded into the first sweep), so the kind degrades under
		// message faults exactly like median does: a corrupted count skews
		// the answer instead of tripping a rank-vs-population mismatch.
		ranks := make([]core.BatchRank, len(q.Phis))
		for i, phi := range q.Phis {
			if phi <= 0 || phi > 1 {
				return oracleAnswer{}, fmt.Errorf("engine: quantile phi %g out of (0,1]", phi)
			}
			ranks[i] = core.BatchRank{Phi: phi}
		}
		res, err := core.SelectRanksSeeded(net, ranks, q.ProbeWidth, q.SeedWindows)
		if err != nil {
			return oracleAnswer{}, err
		}
		ans := oracleAnswer{
			detail: fmt.Sprintf("%d quantiles in %d shared k-ary sweeps (width %d)",
				len(q.Phis), res.Sweeps, q.ProbeWidth),
			truthKnown:   true,
			sweeps:       res.Sweeps,
			seededSweeps: res.SeededSweeps,
			seedHit:      res.SeedHit,
		}
		for i, v := range res.Values {
			k := core.QuantileRank(q.Phis[i], truth.count())
			ans.values = append(ans.values, float64(v))
			ans.truths = append(ans.truths, float64(core.TrueOrderStatistic(sorted(), int(k))))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
		return ans, nil

	case KindFused:
		count, sum, lo, hi, ok := net.MultiAggregate(core.Linear, wire.True())
		if !ok {
			return oracleAnswer{}, fmt.Errorf("engine: empty network")
		}
		got := map[string]float64{
			"count": float64(count), "sum": float64(sum),
			"min": float64(lo), "max": float64(hi),
			"avg": float64(sum) / float64(count),
		}
		ans := oracleAnswer{detail: "fused vector sweep (count+sum+min+max)", truthKnown: true, sweeps: 1}
		for _, a := range q.Aggs {
			v, known := got[a]
			if !known {
				return oracleAnswer{}, fmt.Errorf("engine: unknown fused aggregate %q (count|sum|min|max|avg)", a)
			}
			ans.values = append(ans.values, v)
			ans.truths = append(ans.truths, truth.aggregate(a))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
		return ans, nil

	case KindApxMedian:
		res, err := core.ApxMedian(net, core.ApxParams{Epsilon: q.Eps})
		if err != nil {
			return oracleAnswer{}, err
		}
		return oracleAnswer{
			value:      float64(res.Value),
			detail:     fmt.Sprintf("%d α-counting instances, halted early: %v", res.Instances, res.HaltedEarly),
			truth:      float64(core.TrueMedian(sorted())),
			truthKnown: true,
		}, nil

	case KindApxMedian2:
		res, err := core.ApxMedian2(net, core.Apx2Params{Beta: q.Beta, Epsilon: q.Eps})
		if err != nil {
			return oracleAnswer{}, err
		}
		return oracleAnswer{
			value:      float64(res.Value),
			detail:     fmt.Sprintf("%d zoom stages, %d instances", res.Stages, res.Instances),
			truth:      float64(core.TrueMedian(sorted())),
			truthKnown: true,
		}, nil

	case KindMin:
		v, ok := net.Min(core.Linear)
		if !ok {
			return oracleAnswer{}, fmt.Errorf("engine: empty network")
		}
		return exactUint(v, "exact", truth.totals().lo), nil

	case KindMax:
		v, ok := net.Max(core.Linear)
		if !ok {
			return oracleAnswer{}, fmt.Errorf("engine: empty network")
		}
		return exactUint(v, "exact", truth.totals().hi), nil

	case KindCount:
		return exactUint(net.Count(core.Linear, wire.True()), "exact", truth.count()), nil

	case KindSum:
		return oracleAnswer{value: float64(net.Sum(core.Linear, wire.True())), detail: "exact", truth: truth.aggregate("sum"), truthKnown: true}, nil

	case KindAvg:
		sum := net.Sum(core.Linear, wire.True())
		count := net.Count(core.Linear, wire.True())
		if count == 0 {
			return oracleAnswer{}, fmt.Errorf("engine: empty network")
		}
		return oracleAnswer{value: float64(sum) / float64(count), detail: "exact (SUM/COUNT)", truth: truth.aggregate("avg"), truthKnown: true}, nil

	case KindDistinct:
		res, err := distinct.Exact(ops)
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(uint64(res.Distinct), "exact set union", truth.distinct()), nil

	case KindApxDistinct:
		res, err := distinct.Approximate(ops, q.SketchP, loglog.EstHLL, nw.Seed())
		if err != nil {
			return oracleAnswer{}, err
		}
		return oracleAnswer{
			value:      res.Estimate,
			detail:     fmt.Sprintf("sketch m=%d, σ=%.3f", 1<<q.SketchP, res.Sigma),
			truth:      float64(truth.distinct()),
			truthKnown: true,
		}, nil

	case KindQDigest:
		res, err := qdigest.MedianProtocol(ops, 16)
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("rank error bound %d", res.RankErrorBound), core.TrueMedian(sorted())), nil

	case KindGK:
		res, err := gk.MedianProtocol(ops, 24)
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("rank gap ≤ %d", res.MaxGap), core.TrueMedian(sorted())), nil

	case KindSampling:
		res, err := sampling.Median(ops, 128, nw.Seed())
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("from %d samples", res.SampleSize), core.TrueMedian(sorted())), nil

	case KindGossip:
		res, err := gossip.Median(nw, gossip.Params{})
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("%d push-sum phases", res.Phases), core.TrueMedian(sorted())), nil

	case KindGossipDistinct:
		res := gossip.Distinct(nw, q.SketchP, loglog.EstHLL, nw.Seed(), gossip.Params{})
		return oracleAnswer{
			value:      res.Estimate,
			detail:     fmt.Sprintf("%d gossip rounds", res.Rounds),
			truth:      float64(truth.distinct()),
			truthKnown: true,
		}, nil

	case KindCollectAll:
		res, err := baseline.CollectAllMedian(ops)
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value, fmt.Sprintf("%d items shipped", res.Items), core.TrueMedian(sorted())), nil

	case KindSingleHop:
		if spec.Topology != "complete" {
			return oracleAnswer{}, fmt.Errorf("engine: singlehop requires topology=complete, got %q", spec.Topology)
		}
		res, err := singlehop.Median(nw)
		if err != nil {
			return oracleAnswer{}, err
		}
		return exactUint(res.Value,
			fmt.Sprintf("max transmit %d bits/node, %d radio rounds", res.MaxTransmitBits, res.Rounds),
			core.TrueMedian(sorted())), nil

	case KindBuildTree:
		res, err := spantree.BuildBFS(nw)
		if err != nil {
			return oracleAnswer{}, err
		}
		return oracleAnswer{
			value:      float64(res.Tree.Height()),
			detail:     fmt.Sprintf("distributed BFS in %d rounds", res.Rounds),
			truth:      float64(topology.BFSTree(nw.Graph, 0).Height()),
			truthKnown: true,
		}, nil

	// apxcount and f2 joined the table with the sensorql statement executor's
	// arms, which drove the network directly.
	case KindApxCount:
		an := net.(*agg.Net)
		est := an.ApxCount(core.Linear, wire.True())
		return oracleAnswer{value: est, detail: fmt.Sprintf("α-counting instance, σ=%.3f", an.ApxSigma()),
			truth: float64(truth.count()), truthKnown: true}, nil

	case KindF2:
		res, err := ams.F2Protocol(ops, 5, 64, nw.Seed())
		if err != nil {
			return oracleAnswer{}, err
		}
		freq := map[uint64]float64{}
		for _, v := range sorted() {
			freq[v]++
		}
		var f2 float64
		for _, f := range freq {
			f2 += f * f
		}
		return oracleAnswer{value: res.Estimate, detail: "AMS sketch 5x64, rel. σ ≈ √(2/64)", truth: f2, truthKnown: true}, nil

	default:
		return oracleAnswer{}, fmt.Errorf("engine: unknown query kind %q", q.Kind)
	}
}

// oracleKinds returns every query kind the engine executes, for CLI help.
func oracleKinds() []string {
	return []string{
		KindMedian, KindOrderStat, KindQuantile, KindQuantiles, KindFused,
		KindApxMedian, KindApxMedian2,
		KindMin, KindMax, KindCount, KindSum, KindAvg,
		KindDistinct, KindApxDistinct, KindApxCount, KindF2, KindQDigest, KindGK, KindSampling,
		KindGossip, KindGossipDistinct, KindCollectAll, KindSingleHop,
		KindBuildTree,
	}
}

// oracleFusedMemberFor translates a query into its batch slot, n being the size
// of the population it ranks. ok is false for queries whose parameters the
// solo path would reject (bad phi, unknown aggregate, ...): they fall back
// to solo execution, which reports exactly the error it always has.
func oracleFusedMemberFor(q Query, n uint64) (oracleFusedMember, bool) {
	switch q.Kind {
	case KindMedian:
		return oracleFusedMember{Ranks: []core.BatchRank{{Median: true}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindOrderStat:
		k := q.K
		if k == 0 {
			k = (n + 1) / 2
		}
		return oracleFusedMember{Ranks: []core.BatchRank{{K: k}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindQuantile:
		if q.Phi <= 0 || q.Phi > 1 {
			return oracleFusedMember{}, false
		}
		k := core.QuantileRank(q.Phi, n)
		return oracleFusedMember{Ranks: []core.BatchRank{{K: k}}, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindQuantiles:
		if len(q.Phis) == 0 {
			return oracleFusedMember{}, false
		}
		ranks := make([]core.BatchRank, len(q.Phis))
		for i, phi := range q.Phis {
			if phi <= 0 || phi > 1 {
				return oracleFusedMember{}, false
			}
			ranks[i] = core.BatchRank{Phi: phi}
		}
		return oracleFusedMember{Ranks: ranks, Width: q.ProbeWidth, Seeds: q.SeedWindows}, true
	case KindFused:
		for _, a := range q.Aggs {
			switch a {
			case "count", "sum", "min", "max", "avg":
			default:
				return oracleFusedMember{}, false
			}
		}
		return oracleFusedMember{Aggs: q.Aggs}, true
	case KindCount, KindSum, KindMin, KindMax, KindAvg: // named after their aggregate
		return oracleFusedMember{Aggs: []string{q.Kind}}, true
	}
	return oracleFusedMember{}, false
}

// oracleFusedAnswer assembles a member's answer with exactly the value/truth
// semantics of its solo execution in exec.go; only the detail string
// differs (it names the shared schedule, see fusedDetail).
func oracleFusedAnswer(q Query, mr oracleFusedMemberResult, sweeps int, detail string, truth *groundTruth) oracleAnswer {
	n := truth.count()
	ans := oracleAnswer{detail: detail, truthKnown: true, sweeps: sweeps}
	switch q.Kind {
	case KindMedian:
		ans.value, ans.truth = float64(mr.Values[0]), float64(core.TrueMedian(truth.sorted()))
	case KindOrderStat, KindQuantile:
		k := q.K
		if q.Kind == KindQuantile {
			k = core.QuantileRank(q.Phi, n)
		} else if k == 0 {
			k = (n + 1) / 2
		}
		ans.detail = fmt.Sprintf("rank %d, %s", k, detail)
		ans.value, ans.truth = float64(mr.Values[0]), float64(core.TrueOrderStatistic(truth.sorted(), int(k)))
	case KindQuantiles:
		ans.detail = fmt.Sprintf("%d quantiles, %s", len(q.Phis), detail)
		for i, v := range mr.Values {
			k := core.QuantileRank(q.Phis[i], n)
			ans.values = append(ans.values, float64(v))
			ans.truths = append(ans.truths, float64(core.TrueOrderStatistic(truth.sorted(), int(k))))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
	case KindFused:
		// Aggregate members: truths mirror exec.go's KindFused/Fact 2.1
		// arithmetic over the surviving items.
		ans.detail = "aggregate rider, " + detail
		for i, a := range q.Aggs {
			ans.values = append(ans.values, mr.AggValues[i])
			ans.truths = append(ans.truths, truth.aggregate(a))
		}
		ans.value, ans.truth = ans.values[0], ans.truths[0]
	default: // a single-aggregate kind, named after its aggregate
		ans.detail = "aggregate rider, " + detail
		ans.value, ans.truth = mr.AggValues[0], truth.aggregate(q.Kind)
	}
	return ans
}

// oracleDegradedAnswer assembles a member's best-effort answer after the retry
// budget ran out: the checkpointed bounds stand in for the exact values and
// no truth claim is made (TruthKnown stays false — the population the
// partial sweeps counted over no longer exists).
func oracleDegradedAnswer(q Query, mr oracleFusedMemberResult, retries int) oracleAnswer {
	detail := fmt.Sprintf("degraded: retry budget exhausted after %d attempt(s); best-known bounds", retries+1)
	switch q.Kind {
	case KindMedian, KindOrderStat, KindQuantile:
		return oracleAnswer{value: float64(mr.Values[0]), detail: detail}
	case KindQuantiles:
		ans := oracleAnswer{detail: detail}
		for _, v := range mr.Values {
			ans.values = append(ans.values, float64(v))
		}
		ans.value = ans.values[0]
		return ans
	case KindFused:
		ans := oracleAnswer{detail: detail}
		ans.values = append(ans.values, mr.AggValues...)
		ans.value = ans.values[0]
		return ans
	default:
		return oracleAnswer{value: mr.AggValues[0], detail: detail}
	}
}
