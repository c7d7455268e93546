package faults

import (
	"math"
	"math/rand/v2"
	"testing"

	"sensoragg/internal/topology"
)

func TestZeroSpecIsInactive(t *testing.T) {
	var s Spec
	if s.Active() || s.Structural() || s.MessageLevel() {
		t.Error("zero spec must be inactive")
	}
	// A nonzero seed alone injects nothing: the property the engine's
	// zero-fault byte-identity guarantee rests on.
	s.Seed = 42
	if s.Active() {
		t.Error("seed-only spec must stay inactive")
	}
	p := New(s, 100, 0, 1)
	if p.Active() || p.CrashedCount() != 0 {
		t.Error("seed-only plan must stay inactive")
	}
	for i := 0; i < 10; i++ {
		if d := p.Deliveries(1, 2); d != 1 {
			t.Fatalf("inactive plan delivered %d copies", d)
		}
	}
	if p.msgSeq[1] != 0 {
		t.Error("inactive plan consumed message-sequence state")
	}
}

func TestValidate(t *testing.T) {
	good := []Spec{{}, {Crash: 1}, {Drop: 0.5, Dup: 0.5}, {LinkFail: 0.01}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", s, err)
		}
	}
	bad := []Spec{{Crash: -0.1}, {Drop: 1.5}, {Drop: 0.6, Dup: 0.6}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: expected validation error", s)
		}
	}
}

func TestRootNeverCrashes(t *testing.T) {
	for _, root := range []topology.NodeID{0, 7, 99} {
		p := New(Spec{Crash: 1}, 100, root, 5)
		if p.Crashed(root) {
			t.Errorf("root %d crashed", root)
		}
		if p.CrashedCount() != 99 {
			t.Errorf("root %d: crashed %d of 100, want 99", root, p.CrashedCount())
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec := Spec{Crash: 0.1, LinkFail: 0.05, Drop: 0.1, Dup: 0.1}
	a := New(spec, 200, 0, 9)
	b := New(spec, 200, 0, 9)
	for u := 0; u < 200; u++ {
		if a.Crashed(topology.NodeID(u)) != b.Crashed(topology.NodeID(u)) {
			t.Fatalf("crash decision diverged at node %d", u)
		}
	}
	for u := topology.NodeID(0); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			if a.LinkAlive(u, v) != b.LinkAlive(u, v) {
				t.Fatalf("link decision diverged at (%d,%d)", u, v)
			}
			if a.LinkAlive(u, v) != a.LinkAlive(v, u) {
				t.Fatalf("link decision asymmetric at (%d,%d)", u, v)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if a.Deliveries(3, 4) != b.Deliveries(3, 4) {
			t.Fatalf("delivery decision diverged at message %d", i)
		}
	}

	// A different seed must produce a different plan (statistically).
	c := New(spec, 200, 0, 10)
	same := 0
	for u := 0; u < 200; u++ {
		if a.Crashed(topology.NodeID(u)) == c.Crashed(topology.NodeID(u)) {
			same++
		}
	}
	if same == 200 {
		t.Error("different seeds produced identical crash masks")
	}

	// spec.Seed pins the stream regardless of the run seed.
	d := New(Spec{Crash: 0.1, Seed: 77}, 200, 0, 1)
	e := New(Spec{Crash: 0.1, Seed: 77}, 200, 0, 2)
	for u := 0; u < 200; u++ {
		if d.Crashed(topology.NodeID(u)) != e.Crashed(topology.NodeID(u)) {
			t.Fatal("spec.Seed did not pin the fault stream")
		}
	}
}

func TestRatesApproximatelyHold(t *testing.T) {
	const n = 20000
	p := New(Spec{Crash: 0.1}, n, 0, 3)
	rate := float64(p.CrashedCount()) / float64(n)
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("crash rate %.3f far from 0.1", rate)
	}

	q := New(Spec{Drop: 0.2, Dup: 0.1}, 4, 0, 3)
	var lost, dup, ok int
	for i := 0; i < n; i++ {
		switch q.Deliveries(1, 2) {
		case 0:
			lost++
		case 1:
			ok++
		case 2:
			dup++
		}
	}
	if math.Abs(float64(lost)/n-0.2) > 0.02 {
		t.Errorf("drop rate %.3f far from 0.2", float64(lost)/n)
	}
	if math.Abs(float64(dup)/n-0.1) > 0.02 {
		t.Errorf("dup rate %.3f far from 0.1", float64(dup)/n)
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{}).String(); got != "none" {
		t.Errorf("zero spec renders %q", got)
	}
	got := Spec{Crash: 0.05, Dup: 0.1}.String()
	if got != "crash=0.05 dup=0.1" {
		t.Errorf("rendered %q", got)
	}
}

// TestStreamKeysMatchPerDecisionHash: keying every stream once in New must
// leave every decision what the per-decision formula
// Mix64(Mix64(Mix64(seed^salt)+a)+b) made it, for every stream, over
// random seeds (pinned and run-derived) and identities — the lie words
// included.
func TestStreamKeysMatchPerDecisionHash(t *testing.T) {
	// The salts every recorded fault decision was drawn with, by stream.
	salts := [numStreams]uint64{
		streamCrash:    0x9e3779b97f4a7c15,
		streamLink:     0xbf58476d1ce4e5b9,
		streamMsg:      0x94d049bb133111eb,
		streamByz:      0xd6e8feb86659fd93,
		streamLie:      0xa0761d6478bd642f,
		streamMidCrash: 0x8ebc6af09c88c6e3,
		streamMidLink:  0x589965cc75374cc3,
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200; i++ {
		spec := Spec{Byz: 0.1, ByzMode: []string{ByzCorrupt, ByzEquivocate, ByzCollude}[i%3]}
		if i%2 == 1 {
			spec.Seed = rng.Uint64()
		}
		runSeed := rng.Uint64()
		p := New(spec, 64, 0, runSeed)
		seed := runSeed
		if spec.Seed != 0 {
			seed = spec.Seed
		}
		for s, salt := range salts {
			a, b := rng.Uint64(), rng.Uint64()
			h := Mix64(Mix64(Mix64(seed^salt)+a) + b)
			if got, want := p.uniform(s, a, b), float64(h>>11)/(1<<53); got != want {
				t.Fatalf("seed %#x stream %d (%d, %d): %v, want %v", seed, s, a, b, got, want)
			}
		}
		u := topology.NodeID(rng.IntN(64))
		base := Mix64(seed ^ salts[streamLie])
		want := Mix64(base + uint64(u))
		switch spec.ByzMode {
		case ByzEquivocate:
			want = Mix64(Mix64(base+uint64(u)) + 0)
		case ByzCollude:
			want = Mix64(base + 1)
		}
		if got := p.LieWord(u); got != want {
			t.Fatalf("seed %#x mode %s node %d: lie word %#x, want %#x", seed, spec.ByzMode, u, got, want)
		}
	}
}
