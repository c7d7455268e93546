package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// TestRobustEpochIdentity: a robust service runs every epoch on one run
// seed, so its engine records each audit on epoch 1 and replays it on every
// later epoch. Every result it delivers must equal, in every field but
// WallNS, what the epoch's jobs report submitted on a fresh engine and
// Session, where every audit runs cold. After the last epoch the same jobs
// on another run seed, submitted to the service's engine, must match their
// cold run too: the run seed is part of what an audit is kept under.
func TestRobustEpochIdentity(t *testing.T) {
	for _, mode := range []string{faults.ByzCorrupt, faults.ByzEquivocate, faults.ByzCollude} {
		t.Run(mode, func(t *testing.T) { epochIdentity(t, mode) })
	}
}

func epochIdentity(t *testing.T, mode string) {
	spec := engine.Spec{Topology: "grid", N: 1024, Workload: string(workload.Uniform), Seed: 17,
		Faults: faults.Spec{Byz: 0.05, ByzMode: mode}}
	// Every reading walks by its own step, so each epoch's multiset differs
	// in shape, not only in offset.
	walk := func(e int, u topology.NodeID, prev uint64) uint64 {
		return prev + faults.Mix64(uint64(e)<<32|uint64(u))%97
	}
	eng := engine.New(engine.Options{})
	svc, err := New(Options{Spec: spec, Engine: eng, Robust: true, Update: walk, FuseWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, stmt := range []string{
		"SELECT median(value)",
		"SELECT quantiles(value, 0.25, 0.9)",
		"SELECT count(value)",
		"SELECT max(value)",
	} {
		if _, err := svc.Subscribe(context.Background(), stmt); err != nil {
			t.Fatal(err)
		}
	}
	// cold submits jobs on a fresh engine and Session.
	cold := func(jobs []engine.Job) []engine.Result {
		return engine.New(engine.Options{Session: engine.NewSession()}).Submit(context.Background(), jobs, engine.WithFusion())
	}
	same := func(label string, got, want engine.Result) {
		t.Helper()
		got.WallNS, want.WallNS = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from its cold-audit run:\n got %+v\nwant %+v", label, got, want)
		}
	}
	quarantined := 0
	var jobs []engine.Job
	for e := 1; e <= 5; e++ {
		out := svc.AdvanceEpoch(context.Background())
		svc.mu.Lock()
		ov := svc.overlay
		svc.mu.Unlock()
		jobs = make([]engine.Job, len(out))
		for i, r := range out {
			if r.Failed() || !r.Robust || !r.Exact {
				t.Fatalf("epoch %d: %s: %+v", e, r.ID, r.Result)
			}
			jobs[i] = engine.Job{ID: r.ID, Spec: spec, Query: r.Query, Overlay: ov}
			quarantined += r.Quarantined
		}
		want := cold(jobs)
		for i, r := range out {
			same(fmt.Sprintf("epoch %d: %s", e, r.ID), r.Result, want[i])
		}
	}
	for i := range jobs {
		jobs[i].RunSeed = 99
	}
	got, want := eng.Submit(context.Background(), jobs, engine.WithFusion()), cold(jobs)
	for i := range jobs {
		same(fmt.Sprintf("%s on run seed 99", jobs[i].ID), got[i], want[i])
	}
	if quarantined == 0 {
		t.Fatal("no epoch quarantined anything: the replayed audits would prove little")
	}
}
