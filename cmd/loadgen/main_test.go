package main

import (
	"testing"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
)

// loadgenSpec is the tests' deployment: a 64-node grid.
func loadgenSpec(fs faults.Spec) engine.Spec {
	return engine.Spec{Topology: "grid", N: 64, Workload: "uniform", Seed: 1, Faults: fs}
}

// TestRunPlainDeliversEverything: 8 subscribers over 3 epochs get every
// delivery, none failed, missing or shed.
func TestRunPlainDeliversEverything(t *testing.T) {
	rep, err := run(loadgenSpec(faults.Spec{}), 8, 3, 200, "SELECT median(value)", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deliveries != 8*3 || rep.Failed != 0 || rep.Missing != 0 || rep.SubsDroppedTotal != 0 {
		t.Fatalf("deliveries %d (want 24), failed %d, missing %d, dropped %d",
			rep.Deliveries, rep.Failed, rep.Missing, rep.SubsDroppedTotal)
	}
	if rep.RobustDeliveries != 0 || rep.EpochBitsPerNode <= 0 || rep.SoloBitsPerNode <= 0 {
		t.Fatalf("robust deliveries %d, epoch %g and solo %d bits/node",
			rep.RobustDeliveries, rep.EpochBitsPerNode, rep.SoloBitsPerNode)
	}
}

// TestRunRobustStampsEveryDelivery: at byz 0.05 on the robust tier, every
// delivery is a robust answer.
func TestRunRobustStampsEveryDelivery(t *testing.T) {
	rep, err := run(loadgenSpec(faults.Spec{Byz: 0.05}), 8, 3, 200, "SELECT median(value)", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deliveries != 8*3 || rep.Failed != 0 || rep.Missing != 0 {
		t.Fatalf("deliveries %d (want 24), failed %d, missing %d", rep.Deliveries, rep.Failed, rep.Missing)
	}
	if !rep.Robust || rep.RobustDeliveries != rep.Deliveries {
		t.Fatalf("%d of %d deliveries robust", rep.RobustDeliveries, rep.Deliveries)
	}
}

// TestRunRejectsBadInput: an unparsable statement and a run without
// subscribers are errors.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := run(loadgenSpec(faults.Spec{}), 8, 3, 200, "SELEC median(value)", 0, false); err == nil {
		t.Error("an unparsable statement ran")
	}
	if _, err := run(loadgenSpec(faults.Spec{}), 0, 3, 200, "SELECT median(value)", 0, false); err == nil {
		t.Error("a run without subscribers ran")
	}
}
