package faults

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// randomSpec draws a fault spec over every field String renders: rates,
// byz mode, seed and the phased faults. It may be invalid or inactive.
func randomSpec(rng *rand.Rand) Spec {
	rate := func() float64 {
		if rng.IntN(2) == 0 {
			return 0
		}
		return rng.Float64()
	}
	s := Spec{Crash: rate(), LinkFail: rate(), Byz: rate()}
	s.Drop = rate() / 2
	s.Dup = rate() / 2
	if s.Byz > 0 {
		s.ByzMode = []string{"", ByzCorrupt, ByzEquivocate, ByzCollude}[rng.IntN(4)]
	}
	if rng.IntN(2) == 0 {
		s.Seed = rng.Uint64()
	}
	if rng.IntN(3) == 0 {
		s.MidAt = 1 + rng.IntN(12)
		s.MidCrash, s.MidLinkFail, s.MidKillRoot = rate(), rate(), rng.IntN(2) == 0
	}
	return s
}

// TestParseSpecInvertsString: every valid active spec survives String →
// ParseSpec, its byz mode canonical (an explicit "corrupt" is the default,
// empty); "none" and "off" are the zero spec.
func TestParseSpecInvertsString(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 34))
	checked := 0
	for i := 0; i < 5000; i++ {
		s := randomSpec(rng)
		if s.Validate() != nil || !s.Active() {
			continue
		}
		checked++
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		want := s
		if want.ByzMode == ByzCorrupt {
			want.ByzMode = ""
		}
		if got != want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", s.String(), got, want)
		}
	}
	if checked < 500 {
		t.Fatalf("only %d valid active specs drawn", checked)
	}
	for _, text := range []string{"none", "off", "OFF", "", "seed=9"} {
		if s, err := ParseSpec(text); err != nil || s != (Spec{}) {
			t.Errorf("ParseSpec(%q) = %+v, %v; want the zero spec", text, s, err)
		}
	}
}

// TestParseSpecRejects: malformed tokens and invalid plans are errors.
func TestParseSpecRejects(t *testing.T) {
	for _, text := range []string{
		"drop", "drop=x", "drop=NaN", "drop=2", "drop=0.6 dup=0.6", "nope=0.1",
		"seed=-1", "byzmode=corrupt", "byz=0.1 byzmode=spoof", "off drop=0.1",
		"crash@sweep=0=0.1", "crash@sweep=2", "rootkill@sweep=2=0.1",
		"crash@sweep=2=0.1 linkfail@sweep=3=0.1", "melt@sweep=2=0.1", "crash@sweep=2=x",
	} {
		if s, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", text, s)
		} else if !strings.HasPrefix(err.Error(), "faults: ") {
			t.Errorf("ParseSpec(%q): error %q does not name the package", text, err)
		}
	}
}

// FuzzFaultSpec: any string parses to a spec or an error, never a panic,
// and a parsed spec's String parses back to it.
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		"none", "off", "", "drop=0.1 dup=0.2", "byz=0.05 byzmode=equivocate seed=7",
		"crash@sweep=3=0.1 rootkill@sweep=3", "CRASH@SWEEP=4=0.05 linkfail@sweep=4=0.2 crash=0.02",
		"drop=NaN", "seed=5", "byz=0.1 byzmode=corrupt", "crash=-0 drop=1e-320", "link_fail=0x1p-3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.String())
		if err != nil || again != s {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q parses to %+v, %v", text, s, s.String(), again, err)
		}
	})
}
