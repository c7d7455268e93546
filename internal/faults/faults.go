// Package faults is the deterministic fault-injection subsystem. The
// paper's system model (§2.1) assumes a reliable static network, but the
// sketches it builds on in §2.2 exist precisely because real sensor links
// crash, drop, and duplicate (Considine et al. [2]; Nath et al. [10]; and
// the crash/omission models surveyed in Aspnes' notes). This package turns
// those failure modes into a seeded, reproducible *fault plan*:
//
//   - node crashes — a node is dead for the whole run (the root, i.e. the
//     base station issuing queries, is exempt);
//   - permanent link failures — an undirected edge delivers nothing, ever;
//   - message loss — an individual delivery is dropped;
//   - message duplication — an individual delivery arrives twice (a
//     link-layer retransmission both endpoints pay for);
//   - Byzantine nodes — nodes that *lie*: they report corrupted partial
//     aggregates instead of honest ones (the adversarial tier; the root,
//     as the trusted base station, is exempt).
//
// All decisions are pure functions of (seed, identity): crashes hash the
// node ID, link failures hash the undirected edge, and per-message faults
// hash the directed edge plus a per-sender sequence number. Two plans built
// from the same (spec, n, root, seed) therefore make identical decisions in
// identical order, which is what lets the concurrent query engine fork one
// plan per run and still guarantee bit-identical parallel-vs-serial
// results. An inactive plan (all rates zero) makes no decisions and holds
// no state, so attaching one is byte-identical to attaching none.
//
// The Byzantine model is value corruption at the convergecast boundary:
// a Byzantine node computes its subtree partial honestly, then reports a
// lie drawn from a seeded stream (LieWord) that the combiner maps into its
// legal wire domain. Three modes: "corrupt" nodes tell one consistent lie
// per run, "equivocate" nodes draw a fresh lie per message (so what the
// parent hears disagrees with what a re-audit hears), and "collude" nodes
// all share a single seed-derived lie stream, modeling a coordinated
// subtree set. Detection and quarantine live in internal/byz; a
// quarantined node is excluded from the tree exactly like a crashed one
// (Excluded), so spantree.HealRerooted re-routes its honest descendants
// around it.
//
// Injection happens at the netsim radio/round boundary (see
// netsim.Network.Faults) and at the spantree fast engine's convergecast
// edges; tree repair after structural faults is spantree.HealRerooted.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"sensoragg/internal/topology"
)

// Spec configures a fault plan. The zero value means a reliable network.
// All probabilities are per-decision: Crash per node, LinkFail per
// undirected edge, Drop/Dup per delivered message. Spec is comparable, so
// it can ride inside cache keys (engine.Spec).
type Spec struct {
	// Crash is the probability a node is crashed for the whole run. The
	// root is exempt: it models the base station issuing the query.
	Crash float64 `json:"crash,omitempty"`
	// LinkFail is the probability an undirected edge is permanently dead.
	LinkFail float64 `json:"link_fail,omitempty"`
	// Drop is the probability an individual message delivery is lost.
	Drop float64 `json:"drop,omitempty"`
	// Dup is the probability an individual message delivery arrives twice.
	Dup float64 `json:"dup,omitempty"`
	// Byz is the probability a node is Byzantine for the whole run: it
	// reports corrupted convergecast partials drawn from the seeded lie
	// stream. The root is exempt (trusted base station), and a node that
	// is both crashed and Byzantine stays crashed — dead nodes don't lie.
	Byz float64 `json:"byz,omitempty"`
	// ByzMode selects the lie discipline: "corrupt" (default — one
	// consistent lie per node per run), "equivocate" (a fresh lie per
	// message), or "collude" (all Byzantine nodes share one lie stream).
	ByzMode string `json:"byz_mode,omitempty"`
	// Seed fixes the fault stream independently of the run seed; 0 means
	// "derive from the run seed", which gives every engine run its own
	// forked fault state.
	Seed uint64 `json:"seed,omitempty"`

	// MidAt arms the *phased* (mid-flight) faults: the plan counts protocol
	// boundaries — convergecast sweeps on the tree engines, rounds on the
	// netsim round engine — via Tick, and on boundary number MidAt (1-based)
	// the mid faults below strike all at once. 0 leaves the plan unphased.
	// Phased faults model a node dying *during* a multi-sweep query, the
	// regime the engine's retry policy (engine.Retry) recovers from.
	MidAt int `json:"mid_at,omitempty"`
	// MidCrash is the probability a surviving non-root node crashes at the
	// MidAt boundary (an independent decision stream from Crash).
	MidCrash float64 `json:"mid_crash,omitempty"`
	// MidLinkFail is the probability an undirected edge dies at the MidAt
	// boundary, on top of any run-long LinkFail decisions.
	MidLinkFail float64 `json:"mid_link_fail,omitempty"`
	// MidKillRoot crashes the root — the querier itself — at the MidAt
	// boundary. The run-long Crash exempts the root; this is the explicit
	// root-kill switch, forcing a re-rooted heal (spantree.HealRerooted) or
	// a degraded answer.
	MidKillRoot bool `json:"mid_kill_root,omitempty"`
}

// Byzantine behavior modes.
const (
	ByzCorrupt    = "corrupt"
	ByzEquivocate = "equivocate"
	ByzCollude    = "collude"
)

// Active reports whether the spec injects any fault at all.
func (s Spec) Active() bool {
	return s.Crash > 0 || s.LinkFail > 0 || s.Drop > 0 || s.Dup > 0 || s.Byz > 0 || s.Phased()
}

// Phased reports whether the spec carries mid-flight faults that strike at
// a sweep/round boundary instead of before the run starts.
func (s Spec) Phased() bool {
	return s.MidAt > 0 && (s.MidCrash > 0 || s.MidLinkFail > 0 || s.MidKillRoot)
}

// Adversarial reports whether the spec includes Byzantine (lying) nodes —
// the faults only the robust query mode defends against.
func (s Spec) Adversarial() bool { return s.Byz > 0 }

// Structural reports whether the spec breaks the network's shape (crashed
// nodes or dead links) — the faults spantree.HealRerooted repairs.
// Message-level drop/dup leave the tree intact.
func (s Spec) Structural() bool { return s.Crash > 0 || s.LinkFail > 0 }

// MessageLevel reports whether individual deliveries are faulty.
func (s Spec) MessageLevel() bool { return s.Drop > 0 || s.Dup > 0 }

// Validate rejects out-of-range rates.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"crash", s.Crash}, {"linkfail", s.LinkFail}, {"drop", s.Drop}, {"dup", s.Dup}, {"byz", s.Byz}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails too
			return fmt.Errorf("faults: %s rate %g out of [0,1]", p.name, p.v)
		}
	}
	if s.Drop+s.Dup > 1 {
		return fmt.Errorf("faults: drop+dup = %g exceeds 1", s.Drop+s.Dup)
	}
	switch s.ByzMode {
	case "", ByzCorrupt, ByzEquivocate, ByzCollude:
	default:
		return fmt.Errorf("faults: byzmode %q (want corrupt|equivocate|collude)", s.ByzMode)
	}
	if s.ByzMode != "" && s.Byz <= 0 {
		return fmt.Errorf("faults: byzmode %q without byz rate", s.ByzMode)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"mid_crash", s.MidCrash}, {"mid_linkfail", s.MidLinkFail}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faults: %s rate %g out of [0,1]", p.name, p.v)
		}
	}
	if s.MidAt < 0 {
		return fmt.Errorf("faults: mid_at %d must be ≥ 0", s.MidAt)
	}
	if (s.MidCrash > 0 || s.MidLinkFail > 0 || s.MidKillRoot) && s.MidAt == 0 {
		return fmt.Errorf("faults: mid-flight faults need mid_at ≥ 1 (the sweep/round boundary they strike at)")
	}
	if s.MidAt > 0 && !s.Phased() {
		return fmt.Errorf("faults: mid_at=%d without any mid-flight fault (mid_crash, mid_linkfail, or kill_root)", s.MidAt)
	}
	return nil
}

// String renders the nonzero rates compactly ("crash=0.05 drop=0.1"), or
// "none" for an inactive spec.
func (s Spec) String() string {
	var parts []string
	add := func(name string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, v))
		}
	}
	add("crash", s.Crash)
	add("linkfail", s.LinkFail)
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("byz", s.Byz)
	if s.Byz > 0 && s.ByzMode != "" && s.ByzMode != ByzCorrupt {
		parts = append(parts, fmt.Sprintf("byzmode=%s", s.ByzMode))
	}
	if s.Phased() {
		if s.MidCrash > 0 {
			parts = append(parts, fmt.Sprintf("crash@sweep=%d=%g", s.MidAt, s.MidCrash))
		}
		if s.MidLinkFail > 0 {
			parts = append(parts, fmt.Sprintf("linkfail@sweep=%d=%g", s.MidAt, s.MidLinkFail))
		}
		if s.MidKillRoot {
			parts = append(parts, fmt.Sprintf("rootkill@sweep=%d", s.MidAt))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, " ")
}

// ParseSpec is the inverse of String: space-separated key=value tokens —
// crash, linkfail, drop, dup and byz rates, byzmode and seed — plus the
// phased tokens crash@sweep=K=RATE, linkfail@sweep=K=RATE and
// rootkill@sweep=K, keys case-insensitive. "none" or "off" alone is the
// zero spec. The result is validated and canonical, so its String parses
// back to it: byzmode=corrupt is the default mode (empty), and a spec that
// injects nothing, seed or not, is the zero spec.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	fields := strings.Fields(text)
	if len(fields) == 1 && (strings.EqualFold(fields[0], "none") || strings.EqualFold(fields[0], "off")) {
		return s, nil
	}
	for _, f := range fields {
		if strings.Contains(strings.ToLower(f), "@sweep=") {
			if err := s.parseMid(f); err != nil {
				return Spec{}, err
			}
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: want key=value, got %q", f)
		}
		switch k = strings.ToLower(k); k {
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: bad seed %q: %w", v, err)
			}
			s.Seed = seed
			continue
		case "byzmode":
			s.ByzMode = strings.ToLower(v) // Validate vets the mode name
			continue
		}
		rate, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("faults: bad rate %q: %w", v, err)
		}
		switch k {
		case "crash":
			s.Crash = rate
		case "linkfail", "link_fail":
			s.LinkFail = rate
		case "drop":
			s.Drop = rate
		case "dup":
			s.Dup = rate
		case "byz":
			s.Byz = rate
		default:
			return Spec{}, fmt.Errorf("faults: unknown fault %q (crash|linkfail|drop|dup|byz|byzmode|seed, or crash@sweep=K=RATE|linkfail@sweep=K=RATE|rootkill@sweep=K)", k)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	if s.ByzMode == ByzCorrupt {
		s.ByzMode = ""
	}
	if !s.Active() {
		return Spec{}, nil
	}
	return s, nil
}

// parseMid parses one phased token into the Mid fields. One plan fires at
// one boundary: every token must name the same K.
func (s *Spec) parseMid(tok string) error {
	kind, rest, _ := strings.Cut(strings.ToLower(tok), "@sweep=")
	at, rate, hasRate := strings.Cut(rest, "=")
	k, err := strconv.Atoi(at)
	if err != nil || k < 1 {
		return fmt.Errorf("faults: bad sweep boundary %q in %q (want a positive sweep number)", at, tok)
	}
	if s.MidAt != 0 && s.MidAt != k {
		return fmt.Errorf("faults: conflicting sweep boundaries %d and %d — one plan fires at one boundary", s.MidAt, k)
	}
	s.MidAt = k
	switch kind {
	case "rootkill":
		if hasRate {
			return fmt.Errorf("faults: rootkill@sweep=K takes no rate, got %q", tok)
		}
		s.MidKillRoot = true
	case "crash", "linkfail":
		if !hasRate {
			return fmt.Errorf("faults: want %s@sweep=K=RATE, got %q", kind, tok)
		}
		r, err := strconv.ParseFloat(rate, 64)
		if err != nil {
			return fmt.Errorf("faults: bad rate %q in %q", rate, tok)
		}
		if kind == "crash" {
			s.MidCrash = r
		} else {
			s.MidLinkFail = r
		}
	default:
		return fmt.Errorf("faults: unknown mid-sweep fault %q (crash|linkfail|rootkill)", kind)
	}
	return nil
}

// Plan is one run's instantiated fault schedule. A Plan belongs to exactly
// one run: Deliveries mutates per-sender sequence counters, so plans must
// not be shared across concurrent runs — fork a fresh one per run (New is
// O(n)). Read-only queries (Crashed, LinkAlive) are safe from the round
// engines' worker goroutines; Deliveries must be called from the
// simulator's sequential delivery loop.
type Plan struct {
	spec Spec
	seed uint64
	// stamp numbers the plan among every plan of the process (planStamps):
	// what is derived from a plan (LinkFates) keys on it, not on a pointer,
	// so a cache keeps no plan alive and no later plan reuses its key.
	stamp uint64
	// keys[s] is Mix64(seed ^ streamSalts[s]), the first round of every
	// decision hash on stream s, computed once instead of per decision.
	keys     [numStreams]uint64
	root     topology.NodeID
	crashed  []bool
	nCrashed int
	msgSeq   []uint64

	// Adversarial state (nil/zero for honest plans).
	byz         []bool
	nByz        int
	lieSeq      []uint64 // per-node equivocation counters
	quarantined []bool   // lazily allocated by the first Quarantine
	nQuar       int

	// Phased state: the boundary clock advanced by Tick, and whether the
	// mid-flight faults already struck. Both stay zero for unphased plans.
	clock int
	fired bool
}

// Decision streams keep crash, link, message, membership, and lie hashes
// independent. A stream names its salt in streamSalts; a plan keys every
// stream once, at construction (Plan.keys).
const (
	streamCrash = iota
	streamLink
	streamMsg
	streamByz
	streamLie
	streamMidCrash
	streamMidLink
	numStreams
)

var streamSalts = [numStreams]uint64{
	streamCrash:    0x9e3779b97f4a7c15,
	streamLink:     0xbf58476d1ce4e5b9,
	streamMsg:      0x94d049bb133111eb,
	streamByz:      0xd6e8feb86659fd93,
	streamLie:      0xa0761d6478bd642f,
	streamMidCrash: 0x8ebc6af09c88c6e3,
	streamMidLink:  0x589965cc75374cc3,
}

var planStamps atomic.Uint64

// New instantiates the plan for an n-node network rooted at root. The
// fault stream is seeded by spec.Seed when nonzero, else by runSeed, so a
// plan is reproducible from (spec, n, root, runSeed) alone.
func New(spec Spec, n int, root topology.NodeID, runSeed uint64) *Plan {
	seed := runSeed
	if spec.Seed != 0 {
		seed = spec.Seed
	}
	p := &Plan{
		spec:    spec,
		seed:    seed,
		stamp:   planStamps.Add(1),
		root:    root,
		crashed: make([]bool, n),
		msgSeq:  make([]uint64, n),
	}
	for s, salt := range streamSalts {
		p.keys[s] = Mix64(seed ^ salt)
	}
	if spec.Crash > 0 {
		for u := 0; u < n; u++ {
			if topology.NodeID(u) == root {
				continue
			}
			if p.uniform(streamCrash, uint64(u), 0) < spec.Crash {
				p.crashed[u] = true
				p.nCrashed++
			}
		}
	}
	if spec.Byz > 0 {
		p.byz = make([]bool, n)
		p.lieSeq = make([]uint64, n)
		for u := 0; u < n; u++ {
			if topology.NodeID(u) == root || p.crashed[u] {
				continue // the base station is trusted; dead nodes don't lie
			}
			if p.uniform(streamByz, uint64(u), 0) < spec.Byz {
				p.byz[u] = true
				p.nByz++
			}
		}
	}
	return p
}

// Spec returns the configuration the plan was built from.
func (p *Plan) Spec() Spec { return p.spec }

// Seed returns the resolved fault-stream seed.
func (p *Plan) Seed() uint64 { return p.seed }

// Active reports whether the plan injects anything.
func (p *Plan) Active() bool { return p.spec.Active() }

// Crashed reports whether node u is dead for this run.
func (p *Plan) Crashed(u topology.NodeID) bool { return p.crashed[u] }

// CrashedCount returns the number of crashed nodes.
func (p *Plan) CrashedCount() int { return p.nCrashed }

// LinkAlive reports whether the undirected edge (u, v) currently carries
// traffic. It is symmetric; run-long decisions (LinkFail) are stable for
// the whole run, and once the phased faults have fired the mid-flight
// link decisions (MidLinkFail, an independent stream) apply on top.
func (p *Plan) LinkAlive(u, v topology.NodeID) bool {
	midDead := p.fired && p.spec.MidLinkFail > 0
	if p.spec.LinkFail <= 0 && !midDead {
		return true
	}
	if u > v {
		u, v = v, u
	}
	return !p.linkDead(u, v, midDead)
}

// linkDead decides the undirected link (u, v), u < v: dead for the whole
// run (LinkFail), or — when midDead, the mid-flight failures having struck
// — since the strike (MidLinkFail).
func (p *Plan) linkDead(u, v topology.NodeID, midDead bool) bool {
	return p.spec.LinkFail > 0 && p.uniform(streamLink, uint64(u), uint64(v)) < p.spec.LinkFail ||
		midDead && p.uniform(streamMidLink, uint64(u), uint64(v)) < p.spec.MidLinkFail
}

// Deliveries decides the fate of the next message on the directed edge
// from → to: 0 (lost), 1 (delivered), or 2 (duplicated). Each call
// advances the sender's sequence number, so repeated messages on one edge
// fail independently yet reproducibly. An inactive message layer returns 1
// without consuming any state.
func (p *Plan) Deliveries(from, to topology.NodeID) int {
	if !p.spec.MessageLevel() {
		return 1
	}
	seq := p.msgSeq[from]
	p.msgSeq[from] = seq + 1
	r := p.uniform(streamMsg, uint64(from)<<32|uint64(uint32(to)), seq)
	if r < p.spec.Drop {
		return 0
	}
	if r < p.spec.Drop+p.spec.Dup {
		return 2
	}
	return 1
}

// Adversarial reports whether the plan includes Byzantine nodes.
func (p *Plan) Adversarial() bool { return p.nByz > 0 }

// Byzantine reports whether node u lies in this run. Quarantined nodes
// still report true — quarantine excludes them from the tree (Excluded);
// it does not reform them.
func (p *Plan) Byzantine(u topology.NodeID) bool {
	return p.byz != nil && p.byz[u]
}

// ByzantineCount returns the number of Byzantine nodes in the plan.
func (p *Plan) ByzantineCount() int { return p.nByz }

// LieWord draws the next 64-bit lie word for Byzantine node u — the seeded
// randomness a combiner maps into an in-domain corrupted partial (see
// CorruptValue). "corrupt" mode returns the same word for the node's whole
// run; "equivocate" advances a per-node sequence so every message lies
// differently; "collude" returns one shared stream for all Byzantine nodes.
// Per-node sequence state makes concurrent calls for *different* nodes
// safe (each convergecast step owns its node), matching Deliveries'
// per-sender counters.
func (p *Plan) LieWord(u topology.NodeID) uint64 {
	base := p.keys[streamLie]
	switch p.spec.ByzMode {
	case ByzEquivocate:
		seq := p.lieSeq[u]
		p.lieSeq[u] = seq + 1
		return Mix64(Mix64(base+uint64(u)) + seq)
	case ByzCollude:
		return Mix64(base + 1)
	default: // ByzCorrupt
		return Mix64(base + uint64(u))
	}
}

// LieSeq copies the per-node equivocation counters (nil for an honest
// plan) and SetLieSeq overwrites one: together they carry every liar's
// position in its lie sequence to another run's plan built from the same
// inputs, so that run's next LieWord is the one this plan would draw.
func (p *Plan) LieSeq() []uint64 { return append([]uint64(nil), p.lieSeq...) }

// SetLieSeq overwrites node u's equivocation counter with seq (see LieSeq).
func (p *Plan) SetLieSeq(u topology.NodeID, seq uint64) { p.lieSeq[u] = seq }

// Quarantine excludes node u from the tree for the rest of the run — the
// containment action the byz tier's localization takes once a subtree is
// convicted of lying. Quarantining is idempotent and never applies to the
// root.
func (p *Plan) Quarantine(u topology.NodeID) {
	if u == p.root {
		return
	}
	if p.quarantined == nil {
		p.quarantined = make([]bool, len(p.crashed))
	}
	if !p.quarantined[u] {
		p.quarantined[u] = true
		p.nQuar++
	}
}

// Quarantined reports whether node u has been quarantined this run.
func (p *Plan) Quarantined(u topology.NodeID) bool {
	return p.quarantined != nil && p.quarantined[u]
}

// QuarantinedCount returns the number of quarantined nodes.
func (p *Plan) QuarantinedCount() int { return p.nQuar }

// Excluded reports whether node u is out of the tree — crashed or
// quarantined. Tree repair (spantree.HealRerooted) routes around excluded nodes,
// so quarantining reuses the HELP/AVAIL/JOIN healing wave unchanged.
func (p *Plan) Excluded(u topology.NodeID) bool {
	return p.crashed[u] || (p.quarantined != nil && p.quarantined[u])
}

// ExcludedCount returns the number of excluded (crashed or quarantined)
// nodes.
func (p *Plan) ExcludedCount() int { return p.nCrashed + p.nQuar }

// PhaseArmed reports whether the plan carries mid-flight faults at all —
// fired or not. Protocol drivers guard every per-boundary Tick (and the
// completeness checks that only matter once faults can strike mid-run) on
// this, so unphased plans never pay for the boundary clock.
func (p *Plan) PhaseArmed() bool { return p.spec.Phased() }

// PhaseFired reports whether the mid-flight faults have struck.
func (p *Plan) PhaseFired() bool { return p.fired }

// Tick advances the boundary clock by one sweep/round and fires the
// phased faults when the clock reaches Spec.MidAt; it returns true exactly
// once, on the boundary where the faults strike. Like Deliveries, Tick
// mutates plan state and must be called from the sequential protocol
// driver (the convergecast entry point or the round loop), never from
// worker goroutines. Decisions are pure hashes of (seed, identity) on
// streams independent from the run-long faults, so two plans built from
// the same inputs fire identically — the bit-identity contract the
// parallel engine relies on.
func (p *Plan) Tick() bool {
	if p.fired || !p.spec.Phased() {
		return false
	}
	p.clock++
	if p.clock < p.spec.MidAt {
		return false
	}
	p.fired = true
	if p.spec.MidCrash > 0 {
		for u := range p.crashed {
			if topology.NodeID(u) == p.root || p.crashed[u] {
				continue
			}
			if p.uniform(streamMidCrash, uint64(u), 0) < p.spec.MidCrash {
				p.crashed[u] = true
				p.nCrashed++
			}
		}
	}
	if p.spec.MidKillRoot && !p.crashed[p.root] {
		p.crashed[p.root] = true
		p.nCrashed++
	}
	return true
}

// CorruptValue maps a lie word onto an honest value, producing the
// corrupted value a Byzantine node reports instead. The low bits of the
// word select the corruption style — bit-flip (one of the low 16 bits),
// bounded positive bias (+1..+64), or a fixed lie in [0, 1024) — and the
// result is guaranteed to differ from the honest value. Callers with
// width-limited wire formats mask or clamp the result into their domain
// (the guarantee is then theirs to re-establish; see the agg combiners).
func CorruptValue(x, lie uint64) uint64 {
	var y uint64
	switch lie % 3 {
	case 0:
		y = x ^ (1 << ((lie >> 2) % 16))
	case 1:
		y = x + 1 + (lie>>8)%64
	default:
		y = (lie >> 16) % 1024
	}
	if y == x {
		y = x ^ 1
	}
	if y == ^uint64(0) {
		y-- // keep lies gamma-encodable
	}
	return y
}

// uniform hashes (seed, stream, a, b) to a float64 in [0, 1).
func (p *Plan) uniform(stream int, a, b uint64) float64 {
	h := Mix64(Mix64(p.keys[stream]+a) + b)
	return float64(h>>11) / (1 << 53)
}

// Mix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mixer. The
// byz tier derives its audit nonces and challenge words from it.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
