package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

func testSpec(seed uint64) engine.Spec {
	return engine.Spec{
		Topology: "grid",
		N:        64,
		Workload: string(workload.Uniform),
		MaxX:     1 << 14,
		Seed:     seed,
	}
}

// drift shifts every reading up by step per epoch — a ~5%-of-domain drift
// at step 800 over the 16384 domain.
func drift(step uint64) func(int, topology.NodeID, uint64) uint64 {
	return func(e int, node topology.NodeID, prev uint64) uint64 {
		return prev + step
	}
}

// TestSubscriptionFanInDeterminism: K subscribers over one epoch advance
// execute as ONE fused batch — every member reports the batch's shared
// probe plane, the same answer, and exact agreement with the ground truth
// of the injected epoch state.
func TestSubscriptionFanInDeterminism(t *testing.T) {
	const K = 8
	svc, err := New(Options{Spec: testSpec(3), Update: drift(100)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	subs := make([]*Subscription, K)
	for i := range subs {
		if subs[i], err = svc.Subscribe(context.Background(), "SELECT median(value)"); err != nil {
			t.Fatal(err)
		}
	}
	out := svc.AdvanceEpoch(context.Background())
	if len(out) != K {
		t.Fatalf("%d results for %d subscribers", len(out), K)
	}
	for i, r := range out {
		if r.Failed() {
			t.Fatalf("sub %d: %s", i, r.Error)
		}
		if !r.Fused {
			t.Errorf("sub %d did not fuse", i)
		}
		if !r.Exact {
			t.Errorf("sub %d: answer %g is not exact over the epoch state", i, r.Value)
		}
		if r.Value != out[0].Value || r.SharedSweeps != out[0].SharedSweeps ||
			r.BitsPerNode != out[0].BitsPerNode {
			t.Errorf("sub %d: (%g, %d sweeps, %d bits) differs from sub 0 (%g, %d, %d) — not one batch",
				i, r.Value, r.SharedSweeps, r.BitsPerNode,
				out[0].Value, out[0].SharedSweeps, out[0].BitsPerNode)
		}
		if r.Epoch != 1 || r.SubID != subs[i].ID {
			t.Errorf("sub %d: tagged epoch %d sub %d", i, r.Epoch, r.SubID)
		}
	}
	// The batch's plane must cost at most 2x one solo query on the same
	// state (the serving-layer acceptance shape, at test scale).
	solo := svc.eng.Submit(context.Background(),
		[]engine.Job{{Spec: svc.spec, Query: engine.Query{Kind: engine.KindMedian}, Overlay: svc.overlay}})
	if solo[0].Failed() {
		t.Fatal(solo[0].Error)
	}
	if out[0].BitsPerNode > 2*solo[0].BitsPerNode {
		t.Errorf("K=%d fused epoch costs %d bits/node, solo costs %d — exceeds 2x",
			K, out[0].BitsPerNode, solo[0].BitsPerNode)
	}

	// Channels carry the same results.
	for i, sub := range subs {
		select {
		case got := <-sub.Results():
			if got.Value != out[i].Value || got.Epoch != out[i].Epoch {
				t.Errorf("sub %d channel result %+v != returned %+v", i, got, out[i])
			}
		default:
			t.Errorf("sub %d: no result delivered", i)
		}
	}
}

// TestDeltaNarrowingAcrossEpochs: a subscriber's re-queries stay exact at
// every epoch under ~5% drift, and once the move estimate is in hand they
// seed-hit and use strictly fewer sweeps than a from-scratch query on the
// same epoch state.
func TestDeltaNarrowingAcrossEpochs(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(7), Update: drift(800)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), "SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	_ = sub

	for e := 1; e <= 6; e++ {
		out := svc.AdvanceEpoch(context.Background())
		r := out[0]
		if r.Failed() {
			t.Fatalf("epoch %d: %s", e, r.Error)
		}
		if !r.Exact {
			t.Errorf("epoch %d: seeded answer %g is not exact", e, r.Value)
		}
		// From-scratch reference on the very same epoch state.
		scratch := svc.eng.Submit(context.Background(),
			[]engine.Job{{Spec: svc.spec, Query: engine.Query{Kind: engine.KindMedian}, Overlay: svc.overlay}})[0]
		if scratch.Failed() {
			t.Fatalf("epoch %d scratch: %s", e, scratch.Error)
		}
		if r.Value != scratch.Value {
			t.Errorf("epoch %d: seeded %g != from-scratch %g", e, r.Value, scratch.Value)
		}
		if e < 3 {
			continue // no move estimate yet: full-range fallback
		}
		if !r.SeedHit {
			t.Errorf("epoch %d: seed missed under steady drift", e)
		}
		if r.SeededSweeps == 0 {
			t.Errorf("epoch %d: no sweep was seed-biased", e)
		}
		if r.SharedSweeps >= scratch.SharedSweeps {
			t.Errorf("epoch %d: seeded %d sweeps, from-scratch %d — want strictly fewer",
				e, r.SharedSweeps, scratch.SharedSweeps)
		}
	}
}

// TestGroupCommitWindowFusesAdhoc: concurrent ad-hoc queries arriving
// inside one fuse window execute as one fused batch.
func TestGroupCommitWindowFusesAdhoc(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(11), FuseWindow: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const K = 6
	results := make([]Result, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.Query(context.Background(), "SELECT median(value)")
		}()
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !results[i].Fused {
			t.Errorf("query %d was not fused with the window's batch", i)
		}
		if results[i].Value != results[0].Value || results[i].SharedSweeps != results[0].SharedSweeps {
			t.Errorf("query %d answered off a different plane than query 0", i)
		}
	}
}

// TestEpochMergesWindow: an ad-hoc query holding in the window when an
// epoch advance fires is merged into the epoch's fused batch and answers
// against the fresh epoch state.
func TestEpochMergesWindow(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(13), FuseWindow: time.Hour, Update: drift(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Subscribe(context.Background(), "SELECT median(value)"); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		r   Result
		err error
	}
	done := make(chan reply, 1)
	go func() {
		r, err := svc.Query(context.Background(), "SELECT median(value)")
		done <- reply{r, err}
	}()
	// Wait for the query to enter the window (the hour-long timer ensures
	// only the epoch advance can flush it).
	for {
		svc.mu.Lock()
		n := len(svc.pending)
		svc.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	out := svc.AdvanceEpoch(context.Background())
	rep := <-done
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if rep.r.Epoch != 1 {
		t.Errorf("merged ad-hoc answered epoch %d, want 1", rep.r.Epoch)
	}
	if !rep.r.Fused {
		t.Error("merged ad-hoc did not fuse with the epoch batch")
	}
	if rep.r.Value != out[0].Value {
		t.Errorf("merged ad-hoc %g != subscription %g on the same epoch", rep.r.Value, out[0].Value)
	}
}

// TestWindowDeadlineDetach: epochs advanced under a context already done
// fail the window's batch — every subscription, and an ad-hoc query held
// in the window, report the context's error — without wedging the service:
// the stream keeps delivering, seeding state resets, and the next epoch
// under a live context answers again.
func TestWindowDeadlineDetach(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(17), FuseWindow: time.Hour, Update: drift(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), "SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for e := 1; e <= 2; e++ {
		out := svc.AdvanceEpoch(done)
		if len(out) != 1 {
			t.Fatalf("epoch %d: %d results", e, len(out))
		}
		if out[0].Error != context.Canceled.Error() {
			t.Fatalf("epoch %d: %+v, want the context error", e, out[0])
		}
		select {
		case r := <-sub.Results():
			if !r.Failed() {
				t.Errorf("epoch %d: delivered result not failed", e)
			}
		default:
			t.Errorf("epoch %d: failure was not delivered", e)
		}
	}

	errc := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), "SELECT count(value)")
		errc <- err
	}()
	// Wait for the query to enter the window (the hour-long timer ensures
	// only the epoch advance can flush it).
	for {
		svc.mu.Lock()
		n := len(svc.pending)
		svc.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.AdvanceEpoch(done)
	<-sub.Results()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("ad-hoc flushed by a done epoch: %v, want the context error", err)
	}

	out := svc.AdvanceEpoch(context.Background())
	if len(out) != 1 || out[0].Failed() {
		t.Fatalf("live epoch after the done ones: %+v, want an answer", out)
	}
	if r := <-sub.Results(); r.Failed() || r.Epoch != 4 {
		t.Errorf("live epoch delivered %+v, want epoch 4's answer", r)
	}
}

// TestStatementFallbackAndAggregates: WHERE statements run solo on the
// engine, aggregate statements ride the fused plane, and all answer exactly
// against ground truth — the WHERE one over the matching items.
func TestStatementFallbackAndAggregates(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(19)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, stmt := range []string{
		"SELECT count(value)",
		"SELECT avg(value)",
		"SELECT count(value) WHERE value < 100",
	} {
		if _, err := svc.Subscribe(context.Background(), stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	out := svc.AdvanceEpoch(context.Background())
	if len(out) != 3 {
		t.Fatalf("%d results", len(out))
	}
	for i, r := range out {
		if r.Failed() {
			t.Fatalf("result %d: %s", i, r.Error)
		}
	}
	if out[0].Value != 64 {
		t.Errorf("count = %g, want 64", out[0].Value)
	}
	if out[2].Fused {
		t.Error("WHERE statement must not join a fusion batch")
	}
	for i, r := range out {
		if !r.TruthKnown || !r.Exact {
			t.Errorf("result %d: %g, truth %g (known %v)", i, r.Value, r.Truth, r.TruthKnown)
		}
	}
	if _, err := svc.Subscribe(context.Background(), "SELECT nope(value)"); err == nil {
		t.Error("bad statement subscribed")
	}
}

// TestUnsubscribeAndClose: unsubscribing closes the channel and stops
// deliveries — also for a subscription detached while its epoch's batch is
// in flight, while the others still receive it; Close fails pending window
// queries and closes every remaining channel.
func TestUnsubscribeAndClose(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(23), FuseWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := svc.Subscribe(context.Background(), "SELECT count(value)")
	b, _ := svc.Subscribe(context.Background(), "SELECT count(value)")
	a.Unsubscribe()
	a.Unsubscribe() // idempotent
	if _, ok := <-a.Results(); ok {
		t.Error("unsubscribed channel still open")
	}
	out := svc.AdvanceEpoch(context.Background())
	if len(out) != 1 || out[0].SubID != b.ID {
		t.Fatalf("expected only sub %d to run, got %+v", b.ID, out)
	}
	if r := <-b.Results(); r.Epoch != 1 {
		t.Fatalf("sub %d received epoch %d, want 1", b.ID, r.Epoch)
	}

	// c unsubscribes from inside the engine's Submit: its epoch runs it,
	// but delivers it nothing.
	c, _ := svc.Subscribe(context.Background(), "SELECT count(value)")
	out = svc.AdvanceEpoch(&pollHook{Context: context.Background(), hook: c.Unsubscribe})
	if len(out) != 2 || out[1].SubID != c.ID {
		t.Fatalf("expected subs %d and %d to run, got %+v", b.ID, c.ID, out)
	}
	if r, ok := <-c.Results(); ok {
		t.Errorf("sub %d, detached mid-batch, received epoch %d", c.ID, r.Epoch)
	}
	if r := <-b.Results(); r.Epoch != 2 || r.Failed() {
		t.Fatalf("sub %d received epoch %d (%s), want 2", b.ID, r.Epoch, r.Error)
	}

	qdone := make(chan error, 1)
	go func() {
		_, err := svc.Query(context.Background(), "SELECT count(value)")
		qdone <- err
	}()
	for {
		svc.mu.Lock()
		n := len(svc.pending)
		svc.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	if err := <-qdone; err == nil {
		t.Error("pending query survived Close without error")
	}
	if _, ok := <-b.Results(); ok {
		// Drain the delivered epoch first, then expect closure.
		if _, ok := <-b.Results(); ok {
			t.Error("channel not closed by Close")
		}
	}
	if _, err := svc.Subscribe(context.Background(), "SELECT count(value)"); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
	if out := svc.AdvanceEpoch(context.Background()); out != nil {
		t.Error("AdvanceEpoch after Close ran")
	}
}

// pollHook runs hook the first time it is polled for cancellation, which
// the engine does from inside Submit, while the service holds no lock.
type pollHook struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *pollHook) Err() error {
	c.once.Do(c.hook)
	return c.Context.Err()
}

// TestRobustTwinSubscriptions: two subscriptions to one robust statement
// are one job asked twice, so they receive results identical in every byte
// but SubID and ID, epoch after epoch. Unsubscribing one after epoch 2
// leaves the other's stream what it is when nobody unsubscribes.
func TestRobustTwinSubscriptions(t *testing.T) {
	spec := engine.Spec{Topology: "grid", N: 256, Workload: string(workload.Uniform), Seed: 31,
		Faults: faults.Spec{Byz: 0.05}}
	stream := func(unsubscribe bool) (kept []Result) {
		svc, err := New(Options{Spec: spec, Robust: true, Update: drift(3)})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		a, _ := svc.Subscribe(context.Background(), "SELECT median(value)")
		b, _ := svc.Subscribe(context.Background(), "SELECT median(value)")
		for e := 1; e <= 5; e++ {
			if e == 3 && unsubscribe {
				a.Unsubscribe()
			}
			out := svc.AdvanceEpoch(context.Background())
			rb := out[len(out)-1]
			if rb.SubID != b.ID || rb.Failed() || !rb.Robust || !rb.Exact {
				t.Fatalf("epoch %d: sub %d got %+v", e, b.ID, rb)
			}
			if e < 3 || !unsubscribe {
				ra := out[0]
				ra.SubID, ra.ID = rb.SubID, rb.ID
				ja, _ := json.Marshal(ra)
				jb, _ := json.Marshal(rb)
				if !bytes.Equal(ja, jb) {
					t.Errorf("epoch %d: twin subscriptions differ:\n%s\n%s", e, ja, jb)
				}
			}
			rb.WallNS = 0
			kept = append(kept, rb)
		}
		return kept
	}
	alone, both := stream(true), stream(false)
	if !reflect.DeepEqual(alone, both) {
		t.Errorf("unsubscribing the twin changed the other's stream:\n%+v\n%+v", alone, both)
	}
}

// TestSlowSubscriberSheds: a subscriber that never reads loses oldest
// epochs (counted), and the epoch stream never blocks.
func TestSlowSubscriberSheds(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(29), Buffer: 1, Update: drift(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub, err := svc.Subscribe(context.Background(), "SELECT count(value)")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		svc.AdvanceEpoch(context.Background())
	}
	if sub.Dropped() == 0 {
		t.Error("no drops counted for a never-reading subscriber over 4 epochs with buffer 1")
	}
	select {
	case r := <-sub.Results():
		if r.Epoch != 4 {
			t.Errorf("survivor epoch %d, want the newest (4)", r.Epoch)
		}
	default:
		t.Error("no result buffered")
	}
}

// TestEpochIntervalTicker: the background scheduler advances epochs on
// its own until Close.
func TestEpochIntervalTicker(t *testing.T) {
	svc, err := New(Options{Spec: testSpec(31), EpochInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(context.Background(), "SELECT count(value)")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-sub.Results():
		if r.Failed() {
			t.Fatal(r.Error)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ticker never delivered an epoch")
	}
	svc.Close()
	for range sub.Results() {
	} // must terminate: Close closes the channel
}

// TestRobustService: with Options.Robust set, subscriptions and ad-hoc
// queries run in the engine's Byzantine-robust mode. Under an
// adversarial fault plan the liars are quarantined before the answer,
// and statements the robust tier cannot answer (WHERE clauses) stay on
// the plain path instead of failing the whole service.
func TestRobustService(t *testing.T) {
	spec := testSpec(5)
	spec.N = 128
	spec.Faults.Byz = 0.06
	svc, err := New(Options{Spec: spec, Robust: true, FuseWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	sub, err := svc.Subscribe(context.Background(), "SELECT median(value)")
	if err != nil {
		t.Fatal(err)
	}
	out := svc.AdvanceEpoch(context.Background())
	if len(out) != 1 || out[0].Failed() {
		t.Fatalf("epoch results: %+v", out)
	}
	if !out[0].Robust {
		t.Fatal("subscription result not marked robust")
	}
	if out[0].IntegrityBound != 0 || !out[0].Exact {
		t.Fatalf("robust epoch answer not exact after localization: %+v", out[0].Result)
	}
	sub.Unsubscribe()

	r, err := svc.Query(context.Background(), "SELECT sum(value)")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Robust {
		t.Fatal("ad-hoc result not marked robust")
	}

	// WHERE clauses have no robust path — the service keeps them plain
	// rather than failing.
	r, err = svc.Query(context.Background(), "SELECT count(value) WHERE value < 100")
	if err != nil {
		t.Fatal(err)
	}
	if r.Robust {
		t.Fatal("WHERE statement unexpectedly ran robust")
	}
}
