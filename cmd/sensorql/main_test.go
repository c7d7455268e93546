package main

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/energy"
	"sensoragg/internal/engine"
	"sensoragg/internal/obs"
	"sensoragg/internal/query"
)

func testConsole(t *testing.T) *console {
	t.Helper()
	c := newConsole()
	if err := c.use(engine.Spec{Topology: "grid", N: 64, Workload: "uniform", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.closeService)
	return c
}

// TestSetProbeWidth covers the session knob's parsing: defaults, explicit
// widths, reset to default, and rejection of junk.
func TestSetProbeWidth(t *testing.T) {
	c := testConsole(t)
	if c.probeWidth != 0 {
		t.Fatalf("fresh console probe width %d, want 0 (engine default %d)", c.probeWidth, core.DefaultProbeWidth)
	}
	if err := c.setCommand("set probewidth 16"); err != nil || c.probeWidth != 16 {
		t.Errorf("set probewidth 16: width=%d err=%v", c.probeWidth, err)
	}
	if err := c.setCommand("SET PROBEWIDTH 4"); err != nil || c.probeWidth != 4 {
		t.Errorf("SET PROBEWIDTH 4 (case-insensitive): width=%d err=%v", c.probeWidth, err)
	}
	if err := c.setCommand("set probewidth default"); err != nil || c.probeWidth != 0 {
		t.Errorf("set probewidth default: width=%d err=%v", c.probeWidth, err)
	}
	if err := c.setCommand("set"); err != nil {
		t.Errorf("bare set should print, not error: %v", err)
	}
	for _, bad := range []string{"set probewidth 0", "set probewidth -3", "set probewidth x", "set probewidth 2000", "set frobnitz 3"} {
		if err := c.setCommand(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestSessionWidthFlowsIntoStatements: the session default reaches the
// selection path (visible in the k-ary detail string), and an explicit
// USING probewidth wins over it.
func TestSessionWidthFlowsIntoStatements(t *testing.T) {
	c := testConsole(t)

	res, err := c.exec("SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Detail, "width 8") {
		t.Errorf("engine-default run detail %q, want width %d", res.Detail, core.DefaultProbeWidth)
	}

	if err := c.setCommand("set probewidth 4"); err != nil {
		t.Fatal(err)
	}
	res, err = c.exec("SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Detail, "width 4") {
		t.Errorf("session width 4 run detail %q", res.Detail)
	}

	res, err = c.exec("SELECT median(value) USING probewidth=2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Detail, "width 2") {
		t.Errorf("USING probewidth=2 run detail %q", res.Detail)
	}

	// Multi-quantile rides the same knob and reports every value.
	res, err = c.exec("SELECT quantiles(value, 0.25, 0.5, 0.9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Errorf("quantiles returned %d values", len(res.Values))
	}
}

// TestSetFuse covers the SET FUSE knob and the fused statement batch: the
// semicolon line must answer every statement exactly as solo execution
// does, for one shared plane's cost.
func TestSetFuse(t *testing.T) {
	c := testConsole(t)
	if c.fuse {
		t.Fatal("fresh console has fuse on")
	}
	if err := c.setCommand("set fuse on"); err != nil || !c.fuse {
		t.Fatalf("set fuse on: fuse=%v err=%v", c.fuse, err)
	}
	if err := c.setCommand("SET FUSE OFF"); err != nil || c.fuse {
		t.Fatalf("SET FUSE OFF: fuse=%v err=%v", c.fuse, err)
	}
	if err := c.setCommand("set fuse maybe"); err == nil {
		t.Error("set fuse maybe accepted")
	}
}

// TestFusedQueryMapping: the console maps every statement with
// serve.QueryFor, and the fusable statements land on the engine queries the
// console's own mapping produced before it went through serve.QueryFor
// (oracleFusedQuery below, verbatim): fusable kinds — a single quantile as
// KindQuantiles — at the USING or session probe width (console.jobs fills
// the session width into a statement that sets none). Every other statement
// maps to a query that never fuses (a WHERE clause or a private-schedule
// kind), and a malformed probewidth is refused.
func TestFusedQueryMapping(t *testing.T) {
	statements := []string{
		"SELECT median(value)",
		"SELECT quantile(value, 0.9)",
		"SELECT quantiles(value, 0.25, 0.5)",
		"SELECT quantiles(value, 0.25, 0.5, 0.9)",
		"SELECT count(value)",
		"SELECT sum(value)",
		"SELECT min(value)",
		"SELECT max(value)",
		"SELECT avg(value)",
		"SELECT median(value) USING probewidth=4",
		"SELECT median(value) USING probewidth=2",
		"SELECT quantile(value, 0.99) USING probewidth=1",
		"SELECT median(value) USING probewidth=0.5",
		"SELECT median(value) USING probewidth=0",
		"SELECT median(value) USING probewidth=2000",
		"SELECT median(value) WHERE value < 100",
		"SELECT count(value) WHERE value < 10",
		"SELECT apxmedian(value)",
		"SELECT distinct(value)",
		"SELECT apxcount(value)",
	}
	fusable := []string{engine.KindMedian, engine.KindQuantiles, engine.KindCount, engine.KindSum, engine.KindMin, engine.KindMax, engine.KindAvg}
	c := testConsole(t)
	for _, width := range []int{0, 4} {
		c.probeWidth = width
		for _, s := range statements {
			q, err := query.Parse(s)
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			w, set := q.Options["probewidth"]
			if !set && c.probeWidth > 0 {
				q.Options["probewidth"] = float64(c.probeWidth)
			}
			want, wantOK := oracleFusedQuery(q)
			jobs, err := c.jobs([]string{s})
			switch {
			case set && (w != float64(int(w)) || w < 1 || w > float64(core.MaxProbeWidth)):
				if err == nil {
					t.Errorf("%q: malformed probewidth accepted", s)
				}
				continue
			case err != nil:
				t.Errorf("%q: %v", s, err)
				continue
			}
			got := jobs[0].Query
			if !wantOK {
				if got.Where == nil && slices.Contains(fusable, got.Kind) {
					t.Errorf("width %d %q: %+v would fuse", width, s, got)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("width %d %q: %+v, want %+v", width, s, got, want)
			}
		}
	}
	if _, err := c.jobs([]string{"SELECT nope(value)"}); err == nil {
		t.Error("unparsable statement mapped")
	}
}

// oracleFusedQuery maps a parsed statement onto the engine job a fusion batch
// runs: exact selection statements become seeded-stepper members, the
// Fact 2.1 aggregates become riders on the shared rounds. ok is false for
// statements fusion cannot serve (WHERE clauses — each statement would
// need its own filtered multiset — and the randomized/sketch families,
// whose schedules are private).
//
// A console `quantile(value, φ)` maps to KindQuantiles, not KindQuantile:
// the plural kind resolves φ against the protocol-counted N (BatchRank.Phi,
// like the statement executor's batched path), which keeps fused answers byte-identical
// to the console's solo execution. KindQuantile resolves against the
// simulator-side population — exec.go's semantics, not the console's.
func oracleFusedQuery(q *query.Query) (engine.Query, bool) {
	if q.Where != nil {
		return engine.Query{}, false
	}
	eq := engine.Query{}
	if w, ok := q.Options["probewidth"]; ok {
		if w != float64(int(w)) || w < 1 || w > float64(core.MaxProbeWidth) {
			return engine.Query{}, false
		}
		eq.ProbeWidth = int(w)
	}
	switch q.Agg {
	case query.AggMedian:
		eq.Kind = engine.KindMedian
	case query.AggQuantile:
		if q.Phi <= 0 || q.Phi > 1 {
			return engine.Query{}, false
		}
		eq.Kind = engine.KindQuantiles
		eq.Phis = []float64{q.Phi}
	case query.AggQuantiles:
		if len(q.Phis) == 0 {
			return engine.Query{}, false
		}
		for _, phi := range q.Phis {
			if phi <= 0 || phi > 1 {
				return engine.Query{}, false
			}
		}
		eq.Kind = engine.KindQuantiles
		eq.Phis = q.Phis
	case query.AggMin:
		eq.Kind = engine.KindMin
	case query.AggMax:
		eq.Kind = engine.KindMax
	case query.AggCount:
		eq.Kind = engine.KindCount
	case query.AggSum:
		eq.Kind = engine.KindSum
	case query.AggAvg:
		eq.Kind = engine.KindAvg
	default:
		return engine.Query{}, false
	}
	return eq, true
}

// TestExecFusedMatchesSolo: the fused batch's answers equal the statements
// run one at a time, and the whole batch costs less than the solo total.
func TestExecFusedMatchesSolo(t *testing.T) {
	stmts := []string{
		"SELECT median(value)",
		"SELECT quantile(value, 0.9)",
		"SELECT count(value)",
		"SELECT sum(value)",
	}
	solo := testConsole(t)
	var soloVals []float64
	var soloBits, soloMessages int64
	for _, s := range stmts {
		res, err := solo.exec(s)
		if err != nil {
			t.Fatal(err)
		}
		soloVals = append(soloVals, res.Value)
		soloBits += res.TotalBits
		soloMessages += res.Messages
	}

	c := testConsole(t)
	jobs, err := c.jobs(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.statements(stmts, energy.MoteDefaults()); err != nil {
		t.Fatal(err)
	}
	res := c.eng.Submit(context.Background(), jobs, engine.WithFusion())
	for i, r := range res {
		if r.Failed() {
			t.Fatalf("%s: %s", stmts[i], r.Error)
		}
		if !r.Fused {
			t.Errorf("%s did not fuse", stmts[i])
		}
		if r.Value != soloVals[i] {
			t.Errorf("%s: fused %g != solo %g", stmts[i], r.Value, soloVals[i])
		}
	}
	// Rounds are where fusion wins outright (4 statements, one plane);
	// total bits also drop, though less than the round ratio on a tiny
	// 64-node deployment because the merged chain packs more probes into
	// each surviving sweep.
	if 2*res[0].Messages >= soloMessages {
		t.Errorf("fused batch used %d messages vs %d solo total — want <half", res[0].Messages, soloMessages)
	}
	if res[0].TotalBits >= soloBits {
		t.Errorf("fused batch cost %d bits vs %d solo total — want strictly less", res[0].TotalBits, soloBits)
	}
}

// TestServeCommands drives the serving layer through the console commands:
// subscribe, advance epochs under drift, unsubscribe, and the lifecycle on
// a deployment switch.
func TestServeCommands(t *testing.T) {
	c := testConsole(t)
	model := energy.MoteDefaults()

	if err := c.subscribeCommand("subscribe SELECT median(value)"); err != nil {
		t.Fatal(err)
	}
	if err := c.subscribeCommand("subscribe SELECT count(value)"); err != nil {
		t.Fatal(err)
	}
	if len(c.subs) != 2 {
		t.Fatalf("%d subscriptions, want 2", len(c.subs))
	}
	if err := c.subscribeCommand("subscribe SELECT nope(value)"); err == nil {
		t.Error("bad statement subscribed")
	}
	if err := c.subscribeCommand("subscribe"); err == nil {
		t.Error("empty subscribe accepted")
	}

	if err := c.setCommand("set drift 50"); err != nil || c.drift != 50 {
		t.Fatalf("set drift 50: drift=%d err=%v", c.drift, err)
	}
	if err := c.epochCommand("epoch 4", model); err != nil {
		t.Fatal(err)
	}
	if got := c.svc.Epoch(); got != 4 {
		t.Errorf("after epoch 4: service at epoch %d", got)
	}
	// The command prints from AdvanceEpoch's return and drains the
	// channels, so no stale epochs are queued.
	for id, sub := range c.subs {
		select {
		case r := <-sub.Results():
			t.Errorf("sub [%d] still queues epoch %d after the drain", id, r.Epoch)
		default:
		}
	}

	for _, bad := range []string{"epoch 0", "epoch -2", "epoch x", "epoch 1 2"} {
		if err := c.epochCommand(bad, model); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}

	if err := c.unsubscribeCommand("unsubscribe 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.unsubscribeCommand("unsubscribe 1"); err == nil {
		t.Error("double unsubscribe accepted")
	}
	if err := c.unsubscribeCommand("unsubscribe x"); err == nil {
		t.Error("junk id accepted")
	}
	if err := c.epochCommand("epoch", model); err != nil {
		t.Fatal(err)
	}

	// Switching deployments closes the service; the next subscribe builds
	// a fresh one over the new network, back at epoch 0.
	if err := c.netCommand("net grid 100"); err != nil {
		t.Fatal(err)
	}
	if c.svc != nil || c.subs != nil {
		t.Fatal("deployment switch left the service running")
	}
	if err := c.subscribeCommand("subscribe SELECT max(value)"); err != nil {
		t.Fatal(err)
	}
	if err := c.epochCommand("epoch", model); err != nil {
		t.Fatal(err)
	}
	if got := c.svc.Epoch(); got != 1 {
		t.Errorf("fresh service at epoch %d, want 1", got)
	}
}

// TestSetDrift covers the drift knob's parsing.
func TestSetDrift(t *testing.T) {
	c := testConsole(t)
	if c.drift != 0 {
		t.Fatalf("fresh console drift %d, want 0", c.drift)
	}
	if err := c.setCommand("SET DRIFT 120"); err != nil || c.drift != 120 {
		t.Errorf("SET DRIFT 120: drift=%d err=%v", c.drift, err)
	}
	if err := c.setCommand("set drift off"); err != nil || c.drift != 0 {
		t.Errorf("set drift off: drift=%d err=%v", c.drift, err)
	}
	for _, bad := range []string{"set drift 0", "set drift -4", "set drift fast"} {
		if err := c.setCommand(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestSetObsAndStats covers the observability knob end to end through the
// console: toggling records real events, `stats` sees them, and toggling
// on twice keeps the accumulated sink.
func TestSetObsAndStats(t *testing.T) {
	obs.Disable()
	t.Cleanup(obs.Disable)
	c := testConsole(t)

	if err := c.setCommand("set obs on"); err != nil {
		t.Fatal(err)
	}
	sk := obs.Active()
	if sk == nil {
		t.Fatal("set obs on left no active sink")
	}
	if _, err := c.exec("SELECT median(value)"); err != nil {
		t.Fatal(err)
	}
	if sk.Sweeps.Value() == 0 || sk.Broadcasts.Value() == 0 {
		t.Errorf("a median left no sweep/broadcast counts: sweeps=%d broadcasts=%d",
			sk.Sweeps.Value(), sk.Broadcasts.Value())
	}
	if sk.Tracer.Len() == 0 {
		t.Error("a median left no trace events")
	}

	// Idempotent re-enable keeps the sink (and its accumulated stats).
	before := sk.Sweeps.Value()
	if err := c.setCommand("SET OBS ON"); err != nil {
		t.Fatal(err)
	}
	if obs.Active() != sk {
		t.Error("redundant `set obs on` replaced the sink")
	}
	if obs.Active().Sweeps.Value() != before {
		t.Error("redundant `set obs on` reset the counters")
	}

	c.statsCommand() // prints a snapshot; must not panic with obs on

	if err := c.setCommand("set obs off"); err != nil {
		t.Fatal(err)
	}
	if obs.Active() != nil {
		t.Fatal("set obs off left a sink active")
	}
	c.statsCommand() // prints the "off" hint; must not panic with obs off

	if err := c.setCommand("set obs maybe"); err == nil {
		t.Error("`set obs maybe` accepted")
	}
}

// TestFaultsByzParsing: the faults command accepts byz rates and
// byzmode disciplines, round-trips them into the deployment spec, and
// rejects junk modes and byzmode-without-byz.
func TestFaultsByzParsing(t *testing.T) {
	c := testConsole(t)
	if err := c.faultsCommand("faults byz=0.05 byzmode=equivocate seed=7"); err != nil {
		t.Fatal(err)
	}
	if c.spec.Faults.Byz != 0.05 || c.spec.Faults.ByzMode != "equivocate" || c.spec.Faults.Seed != 7 {
		t.Fatalf("spec faults %+v", c.spec.Faults)
	}
	if err := c.faultsCommand("faults byz=0.1 byzmode=COLLUDE"); err != nil {
		t.Fatalf("byzmode should be case-insensitive: %v", err)
	}
	if c.spec.Faults.ByzMode != "collude" {
		t.Fatalf("byzmode %q", c.spec.Faults.ByzMode)
	}
	for _, bad := range []string{
		"faults byz=2",                 // rate out of range
		"faults byz=0.1 byzmode=spoof", // unknown discipline
		"faults byzmode=corrupt",       // mode without a rate
		"faults byz=x",                 // unparsable rate
	} {
		if err := c.faultsCommand(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := c.faultsCommand("faults off"); err != nil || c.spec.Faults.Active() {
		t.Fatalf("faults off: %+v err=%v", c.spec.Faults, err)
	}
}

// TestSetRobustAndExec: `set robust on` answers statements on the
// Byzantine-robust tier — under an adversarial plan the robust answer is
// exact after localization — and statements without a robust path (a
// WHERE clause, a randomized kind) are refused with guidance.
func TestSetRobustAndExec(t *testing.T) {
	c := testConsole(t)
	if err := c.setCommand("set robust on"); err != nil || !c.robust {
		t.Fatalf("set robust on: robust=%v err=%v", c.robust, err)
	}
	if err := c.faultsCommand("faults byz=0.08"); err != nil {
		t.Fatal(err)
	}
	if err := c.statements([]string{"SELECT median(value)"}, energy.MoteDefaults()); err != nil {
		t.Fatalf("robust median: %v", err)
	}
	// The answer must be exact after localization (everything
	// byz-flagged is quarantined).
	r, err := c.exec("SELECT median(value)")
	if err != nil || !r.Robust || !r.Exact || r.IntegrityBound != 0 {
		t.Fatalf("robust result %+v (%v)", r, err)
	}
	for _, stmt := range []string{"SELECT count(value) WHERE value < 10", "SELECT apxmedian(value)"} {
		if _, err := c.exec(stmt); err == nil || !strings.Contains(err.Error(), "robust") {
			t.Fatalf("%s should be refused on the robust tier, got %v", stmt, err)
		}
	}
	if err := c.setCommand("set robust off"); err != nil || c.robust {
		t.Fatalf("set robust off: robust=%v err=%v", c.robust, err)
	}
	if err := c.setCommand("set robust sideways"); err == nil {
		t.Fatal("bad robust value accepted")
	}
}

// TestStatsShowsByzCounters: the obs registry pre-registers the byz
// tier's instruments, so `stats` surfaces them (and a robust run under
// an adversary moves the quarantine counter).
func TestStatsShowsByzCounters(t *testing.T) {
	if obs.Active() != nil {
		t.Skip("observability already active in this process")
	}
	obs.Enable()
	defer obs.Disable()
	c := testConsole(t)
	if err := c.faultsCommand("faults byz=0.08"); err != nil {
		t.Fatal(err)
	}
	r := c.eng.Submit(context.Background(), []engine.Job{{
		Spec: c.spec, Query: engine.Query{Kind: engine.KindCount, Robust: true},
	}})[0]
	if r.Failed() {
		t.Fatal(r.Error)
	}
	snap := obs.Active().Metrics.Snapshot()
	if _, ok := snap.Counters["byz_suspected_total"]; !ok {
		t.Error("byz_suspected_total not registered")
	}
	if _, ok := snap.Gauges["integrity_bound"]; !ok {
		t.Error("integrity_bound not registered")
	}
	if r.Quarantined > 0 && snap.Counters["byz_quarantined_total"] == 0 {
		t.Errorf("quarantined %d but byz_quarantined_total is 0", r.Quarantined)
	}
}

// TestSetRetry covers the mid-sweep retry budget knob: numbers, off,
// and rejection of junk. The budget lands on the console spec's Retry,
// which every engine-routed statement inherits.
func TestSetRetry(t *testing.T) {
	c := testConsole(t)
	if c.spec.Retry.Budget != 0 {
		t.Fatalf("fresh console retry budget %d, want 0", c.spec.Retry.Budget)
	}
	if err := c.setCommand("set retry 3"); err != nil || c.spec.Retry.Budget != 3 {
		t.Errorf("set retry 3: budget=%d err=%v", c.spec.Retry.Budget, err)
	}
	if err := c.setCommand("SET RETRY OFF"); err != nil || c.spec.Retry.Budget != 0 {
		t.Errorf("SET RETRY OFF: budget=%d err=%v", c.spec.Retry.Budget, err)
	}
	for _, bad := range []string{"set retry -1", "set retry x", "set retry 1.5"} {
		if err := c.setCommand(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestFaultsMidSweepParsing: the phased fault tokens land on the Mid
// fields, tokens must agree on one boundary, and malformed tokens are
// refused with the field named.
func TestFaultsMidSweepParsing(t *testing.T) {
	c := testConsole(t)
	if err := c.faultsCommand("faults crash@sweep=3=0.1"); err != nil {
		t.Fatal(err)
	}
	if fs := c.spec.Faults; fs.MidAt != 3 || fs.MidCrash != 0.1 || !fs.Phased() {
		t.Fatalf("spec faults %+v", c.spec.Faults)
	}
	if err := c.faultsCommand("faults rootkill@sweep=2"); err != nil {
		t.Fatal(err)
	}
	if fs := c.spec.Faults; fs.MidAt != 2 || !fs.MidKillRoot || fs.MidCrash != 0 {
		t.Fatalf("rootkill plan %+v", c.spec.Faults)
	}
	if err := c.faultsCommand("faults CRASH@SWEEP=4=0.05 linkfail@sweep=4=0.2 crash=0.02"); err != nil {
		t.Fatalf("mixed pre-query + mid-sweep plan refused: %v", err)
	}
	if fs := c.spec.Faults; fs.MidAt != 4 || fs.MidCrash != 0.05 || fs.MidLinkFail != 0.2 || fs.Crash != 0.02 {
		t.Fatalf("mixed plan %+v", c.spec.Faults)
	}
	for _, bad := range []string{
		"faults crash@sweep=3=0.1 rootkill@sweep=2", // conflicting boundaries
		"faults crash@sweep=3",                      // crash needs a rate
		"faults rootkill@sweep=2=0.5",               // rootkill takes no rate
		"faults crash@sweep=0=0.1",                  // boundary must be >= 1
		"faults crash@sweep=x=0.1",                  // unparsable boundary
		"faults frob@sweep=3=0.1",                   // unknown mid fault
		"faults crash@sweep=3=1.5",                  // rate out of range (Validate)
	} {
		if err := c.faultsCommand(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := c.faultsCommand("faults off"); err != nil || c.spec.Faults.Active() {
		t.Fatalf("faults off: %+v err=%v", c.spec.Faults, err)
	}
}

// TestExecResilientSolo: with a phased root-kill plan armed and a retry
// budget, a console statement survives the mid-sweep fault and answers
// exactly over the survivors; with the budget off the same statement
// degrades but still answers. WHERE clauses are refused under a phased
// plan with guidance.
func TestExecResilientSolo(t *testing.T) {
	c := testConsole(t)
	model := energy.MoteDefaults()
	if err := c.setCommand("set retry 2"); err != nil {
		t.Fatal(err)
	}
	if err := c.faultsCommand("faults rootkill@sweep=2 crash@sweep=2=0.05"); err != nil {
		t.Fatal(err)
	}
	if err := c.statements([]string{"SELECT median(value)"}, model); err != nil {
		t.Fatalf("resilient median: %v", err)
	}
	r, err := c.exec("SELECT median(value)")
	if err != nil || !r.Exact || r.Retries < 1 || r.Degraded {
		t.Fatalf("resilient result %+v (%v)", r, err)
	}
	if r.SurvivorFrac <= 0 || r.SurvivorFrac >= 1 {
		t.Fatalf("survivor fraction %g not in (0,1)", r.SurvivorFrac)
	}

	if err := c.setCommand("set retry off"); err != nil {
		t.Fatal(err)
	}
	if err := c.statements([]string{"SELECT median(value)"}, model); err != nil {
		t.Fatalf("degraded statement should still answer: %v", err)
	}
	r, err = c.exec("SELECT median(value)")
	if err != nil || !r.Degraded || r.TruthKnown {
		t.Fatalf("budget-0 result %+v (%v)", r, err)
	}

	if _, err := c.exec("SELECT count(value) WHERE value < 10"); err == nil ||
		!strings.Contains(err.Error(), "mid-sweep") {
		t.Fatalf("WHERE clause should be refused under a phased plan, got %v", err)
	}
}
