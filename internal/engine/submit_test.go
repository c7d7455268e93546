package engine

import (
	"context"
	"testing"

	"sensoragg/internal/core"
)

// TestSubmitProbeWidths: every job runs at its own probe width — an unset
// width resolves to the engine default, an explicit one is kept — and
// Submit leaves the caller's jobs alone.
func TestSubmitProbeWidths(t *testing.T) {
	jobs := []Job{
		{Spec: gridSpec(100, 5), Query: Query{Kind: KindMedian}},
		{Spec: gridSpec(100, 5), Query: Query{Kind: KindMedian, ProbeWidth: 2}},
		{Spec: gridSpec(100, 5), Query: Query{Kind: KindMedian, ProbeWidth: 16}},
	}
	res := New(Options{}).Submit(context.Background(), jobs)
	for i, want := range []int{core.DefaultProbeWidth, 2, 16} {
		if res[i].Failed() {
			t.Fatalf("job %d: %s", i, res[i].Error)
		}
		if got := res[i].Query.ProbeWidth; got != want {
			t.Errorf("job %d ran at width %d, want %d", i, got, want)
		}
	}
	if jobs[0].Query.ProbeWidth != 0 {
		t.Error("Submit mutated the caller's job slice")
	}
}

// TestSubmitOverlay: an overlay replaces the sensed multiset — the answer
// and the ground truth both follow the injected values, solo and fused,
// and jobs with different overlays never share a probe plane.
func TestSubmitOverlay(t *testing.T) {
	spec := gridSpec(64, 9)
	n := spec.Normalize().N
	flat := make([]uint64, n)
	for i := range flat {
		flat[i] = 77
	}
	ov := &Overlay{Epoch: 4, Values: flat}

	jobs := []Job{
		{Spec: spec, Query: Query{Kind: KindMedian}, Overlay: ov},
		{Spec: spec, Query: Query{Kind: KindQuantile, Phi: 0.25}, Overlay: ov},
		{Spec: spec, Query: Query{Kind: KindMedian}}, // no overlay: must not fuse with the others
	}
	res := New(Options{}).Submit(context.Background(), jobs, WithFusion())
	for i := 0; i < 2; i++ {
		if res[i].Failed() {
			t.Fatalf("job %d: %s", i, res[i].Error)
		}
		if res[i].Value != 77 || !res[i].Exact {
			t.Errorf("job %d: value %g exact=%v, want the injected 77", i, res[i].Value, res[i].Exact)
		}
		if !res[i].Fused {
			t.Errorf("job %d: same-overlay jobs did not fuse", i)
		}
	}
	if res[2].Failed() {
		t.Fatalf("overlay-free job: %s", res[2].Error)
	}
	if res[2].Value == 77 && res[2].Fused {
		t.Error("overlay leaked into the overlay-free job's batch")
	}

	short := &Overlay{Values: flat[:3]}
	bad := New(Options{}).Submit(context.Background(), []Job{{Spec: spec, Query: Query{Kind: KindCount}, Overlay: short}})
	if !bad[0].Failed() {
		t.Error("length-mismatched overlay did not fail")
	}
}

// TestSubmitSeededIdentity: SeedWindows never change the answer, solo or
// fused, and a containing window reports SeedHit with biased sweeps.
func TestSubmitSeededIdentity(t *testing.T) {
	spec := gridSpec(256, 11)
	base := Job{Spec: spec, Query: Query{Kind: KindMedian}}
	eng := New(Options{})
	want := eng.Submit(context.Background(), []Job{base})[0]
	if want.Failed() {
		t.Fatal(want.Error)
	}
	med := uint64(want.Value)

	for name, win := range map[string]core.SeedWindow{
		"hit":  {Lo: med - min(med, 16), Hi: med + 16},
		"miss": {Lo: med + 100, Hi: med + 200},
	} {
		t.Run(name, func(t *testing.T) {
			seeded := base
			seeded.Query.SeedWindows = []core.SeedWindow{win}
			got := eng.Submit(context.Background(), []Job{seeded})[0]
			if got.Failed() {
				t.Fatal(got.Error)
			}
			if got.Value != want.Value {
				t.Errorf("seeded answer %g != unseeded %g", got.Value, want.Value)
			}
			if wantHit := name == "hit"; got.SeedHit != wantHit {
				t.Errorf("SeedHit=%v, want %v", got.SeedHit, wantHit)
			}
			if got.SeededSweeps == 0 {
				t.Error("no sweep was seed-biased")
			}

			// Fused pair: one seeded member, one unseeded — identical values.
			plain := base
			pair := eng.Submit(context.Background(), []Job{seeded, plain}, WithFusion())
			for i, r := range pair {
				if r.Failed() {
					t.Fatalf("fused job %d: %s", i, r.Error)
				}
				if r.Value != want.Value {
					t.Errorf("fused job %d: value %g != %g", i, r.Value, want.Value)
				}
				if !r.Fused {
					t.Errorf("fused job %d did not fuse", i)
				}
			}
			if wantHit := name == "hit"; pair[0].SeedHit != wantHit {
				t.Errorf("fused SeedHit=%v, want %v", pair[0].SeedHit, wantHit)
			}
			if pair[1].SeedHit {
				t.Error("unseeded member reported SeedHit")
			}
		})
	}
}
