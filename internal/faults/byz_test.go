package faults

import (
	"testing"

	"sensoragg/internal/topology"
)

func TestByzValidate(t *testing.T) {
	good := []Spec{{Byz: 0.1}, {Byz: 1, ByzMode: ByzCorrupt}, {Byz: 0.5, ByzMode: ByzEquivocate}, {Byz: 0.2, ByzMode: ByzCollude}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", s, err)
		}
		if !s.Active() || !s.Adversarial() {
			t.Errorf("%v: must be active and adversarial", s)
		}
	}
	bad := []Spec{{Byz: -0.1}, {Byz: 1.5}, {Byz: 0.1, ByzMode: "liar"}, {ByzMode: ByzCorrupt}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: expected validation error", s)
		}
	}
	if (Spec{Crash: 0.5}).Adversarial() {
		t.Error("crash-only spec must not be adversarial")
	}
}

func TestByzRootExemptAndDeadNodesDoNotLie(t *testing.T) {
	for _, root := range []topology.NodeID{0, 7, 99} {
		p := New(Spec{Byz: 1}, 100, root, 5)
		if p.Byzantine(root) {
			t.Errorf("root %d is Byzantine", root)
		}
		if p.ByzantineCount() != 99 {
			t.Errorf("root %d: %d of 100 Byzantine, want 99", root, p.ByzantineCount())
		}
	}
	// A crashed node never doubles as a liar: crash wins.
	p := New(Spec{Crash: 0.5, Byz: 1}, 200, 0, 9)
	for u := topology.NodeID(0); u < 200; u++ {
		if p.Crashed(u) && p.Byzantine(u) {
			t.Fatalf("node %d is both crashed and Byzantine", u)
		}
	}
	if p.ByzantineCount()+p.CrashedCount() != 199 {
		t.Errorf("crashed %d + byz %d should cover all 199 non-root nodes",
			p.CrashedCount(), p.ByzantineCount())
	}
}

// TestByzForkDeterminism is the fork contract for adversarial plans: two
// plans built from the same (spec, n, root, seed) — the engine forks one
// per run — agree on membership and produce the identical lie schedule,
// word for word, in every mode.
func TestByzForkDeterminism(t *testing.T) {
	for _, mode := range []string{ByzCorrupt, ByzEquivocate, ByzCollude} {
		spec := Spec{Byz: 0.2, ByzMode: mode, Crash: 0.1}
		a := New(spec, 200, 0, 9)
		b := New(spec, 200, 0, 9)
		for u := topology.NodeID(0); u < 200; u++ {
			if a.Byzantine(u) != b.Byzantine(u) {
				t.Fatalf("mode %s: membership diverged at node %d", mode, u)
			}
		}
		for i := 0; i < 100; i++ {
			for u := topology.NodeID(0); u < 200; u += 17 {
				if !a.Byzantine(u) {
					continue
				}
				if la, lb := a.LieWord(u), b.LieWord(u); la != lb {
					t.Fatalf("mode %s: lie schedule diverged at node %d draw %d: %d vs %d",
						mode, u, i, la, lb)
				}
			}
		}
		// A different seed shifts the lie stream.
		c := New(spec, 200, 0, 10)
		for u := topology.NodeID(0); u < 200; u++ {
			if a.Byzantine(u) && c.Byzantine(u) {
				if a2, c2 := New(spec, 200, 0, 9), c; a2.LieWord(u) == c2.LieWord(u) {
					t.Fatalf("mode %s: different seeds share a lie word at node %d", mode, u)
				}
				break
			}
		}
	}
}

func TestByzModes(t *testing.T) {
	// corrupt: one consistent word per node per run.
	p := New(Spec{Byz: 1}, 10, 0, 7)
	w1, w2 := p.LieWord(3), p.LieWord(3)
	if w1 != w2 {
		t.Error("corrupt mode must repeat the node's lie word")
	}
	if p.LieWord(4) == w1 {
		t.Error("corrupt mode must give distinct nodes distinct words")
	}

	// equivocate: a fresh word per draw.
	q := New(Spec{Byz: 1, ByzMode: ByzEquivocate}, 10, 0, 7)
	e1, e2 := q.LieWord(3), q.LieWord(3)
	if e1 == e2 {
		t.Error("equivocate mode must advance the lie stream per draw")
	}

	// collude: every Byzantine node shares the stream.
	r := New(Spec{Byz: 1, ByzMode: ByzCollude}, 10, 0, 7)
	if r.LieWord(3) != r.LieWord(7) {
		t.Error("collude mode must share one lie word across nodes")
	}
}

func TestCorruptValueAlwaysLies(t *testing.T) {
	for x := uint64(0); x < 2000; x++ {
		for lie := uint64(0); lie < 50; lie++ {
			y := CorruptValue(x, Mix64(lie+x*1315423911))
			if y == x {
				t.Fatalf("CorruptValue(%d) returned the honest value", x)
			}
			if y == ^uint64(0) {
				t.Fatalf("CorruptValue(%d) returned the gamma-unencodable sentinel", x)
			}
		}
	}
}

func TestQuarantineExcludes(t *testing.T) {
	p := New(Spec{Byz: 1}, 10, 0, 3)
	if p.Quarantined(4) || p.QuarantinedCount() != 0 {
		t.Fatal("fresh plan has quarantined nodes")
	}
	p.Quarantine(4)
	p.Quarantine(4) // idempotent
	if !p.Quarantined(4) || p.QuarantinedCount() != 1 {
		t.Errorf("quarantine bookkeeping: q(4)=%v count=%d", p.Quarantined(4), p.QuarantinedCount())
	}
	if !p.Excluded(4) || p.Excluded(5) {
		t.Error("Excluded must track quarantine")
	}
	if !p.Byzantine(4) {
		t.Error("quarantine must not clear the Byzantine flag")
	}
	p.Quarantine(0) // root: refused
	if p.Quarantined(0) {
		t.Error("root must never be quarantined")
	}
	if p.ExcludedCount() != 1 {
		t.Errorf("ExcludedCount = %d, want 1", p.ExcludedCount())
	}
}

func TestByzSpecString(t *testing.T) {
	if got := (Spec{Byz: 0.1}).String(); got != "byz=0.1" {
		t.Errorf("rendered %q", got)
	}
	if got := (Spec{Byz: 0.1, ByzMode: ByzEquivocate}).String(); got != "byz=0.1 byzmode=equivocate" {
		t.Errorf("rendered %q", got)
	}
	if got := (Spec{Byz: 0.1, ByzMode: ByzCorrupt}).String(); got != "byz=0.1" {
		t.Errorf("corrupt is the default mode, rendered %q", got)
	}
}
