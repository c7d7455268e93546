// Package obs is the stack's dependency-free observability layer: a
// ring-buffer tracer for sweep/batch/epoch events and a metrics
// registry (counters, gauges, fixed-bucket histograms). The HTTP
// exposition endpoint (/metrics in Prometheus text format, /healthz,
// /debug/trace as JSONL, plus net/http/pprof) lives in the obshttp
// subpackage so that recording binaries never link net/http — see
// RegisterEndpoint.
//
// The layer is opt-in and nil-sink free when disabled: instrumentation
// sites are guarded by
//
//	if s := obs.Active(); s != nil { s.… }
//
// so a disabled sink costs exactly one atomic pointer load per
// *operation* (one broadcast, one convergecast, one fusion batch, one
// epoch — never per node or per edge) and zero allocations, preserving
// the PR 3 zero-alloc hot path. Hooks never touch the Meter's
// single-writer Seq charge paths: bits/node figures come from the
// Meter.Since deltas the engine already computes at job and batch
// boundaries.
package obs

import (
	"errors"
	"sync/atomic"
)

// Sink bundles a tracer, a registry, and the pre-bound instruments the
// instrumented tiers use, so hot call sites never do a map lookup.
type Sink struct {
	Tracer  *Tracer
	Metrics *Registry

	// Probe plane (spantree/agg).
	Sweeps     *Counter   // sweeps_total: convergecast sweeps executed
	Broadcasts *Counter   // broadcasts_total: tree broadcasts executed
	Probes     *Counter   // probes_total: CountVec probe thresholds shipped
	ChainWidth *Histogram // countvec_chain_width: predicates per CountVec round

	// Engine / fusion plane.
	Queries         *Counter   // queries_total: jobs executed solo
	BitsPerNode     *Histogram // bits_per_node: max per-node bits per job/batch
	FusionBatchSize *Histogram // fusion_batch_size: members per fused batch
	FusionDetach    *Counter   // fusion_detach_total: members detached at deadline
	FusionSolo      *Counter   // fusion_solo_fallback_total: batch members re-run alone

	// Serving layer.
	Epochs       *Counter   // epochs_total
	EpochLatency *Histogram // epoch_latency_seconds: AdvanceEpoch wall time
	WindowFill   *Histogram // fuse_window_fill: ad-hoc queries merged per batch
	SeedHits     *Counter   // seed_hits_total: delta-narrowing seed windows that held
	SeedMisses   *Counter   // seed_misses_total: seeded runs that fell back
	SeedHitRatio *Gauge     // seed_hit_ratio: hits / (hits+misses), cumulative
	SubsDropped  *Counter   // subs_dropped_total: deliveries shed to slow subscribers

	// Byzantine-robust tier.
	ByzSuspected   *Counter // byz_suspected_total: subtree roots suspected by audits or trims
	ByzQuarantined *Counter // byz_quarantined_total: nodes convicted and quarantined
	IntegrityBound *Gauge   // integrity_bound: last robust answer's residual bound (items)

	// Mid-flight fault tolerance (engine retry + serve degradation).
	Retries          *Counter // retries_total: mid-sweep re-heal/resume attempts
	SweepsIncomplete *Counter // sweeps_incomplete_total: convergecasts that failed the completeness check
	DegradedAnswers  *Counter // degraded_answers_total: answers served from best-known bounds
	LKGServed        *Counter // lkg_served_total: subscription deliveries served from the last-known-good cache
	BreakerState     *Gauge   // breaker_state: serve circuit breaker (0 closed, 1 half-open, 2 open)
}

// NewSink builds a sink with a fresh tracer and registry and every
// instrument registered.
func NewSink() *Sink {
	reg := NewRegistry()
	return &Sink{
		Tracer:  NewTracer(DefaultTraceCap),
		Metrics: reg,

		Sweeps:     reg.Counter("sweeps_total", "Convergecast sweeps executed by the tree engine."),
		Broadcasts: reg.Counter("broadcasts_total", "Tree broadcasts executed by the tree engine."),
		Probes:     reg.Counter("probes_total", "CountVec probe thresholds shipped."),
		ChainWidth: reg.Histogram("countvec_chain_width", "Predicates per CountVec probe round.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),

		Queries: reg.Counter("queries_total", "Jobs executed outside a fused batch."),
		BitsPerNode: reg.Histogram("bits_per_node", "Max per-node bits charged per job or fused batch.",
			[]float64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}),
		FusionBatchSize: reg.Histogram("fusion_batch_size", "Members per fused batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		FusionDetach: reg.Counter("fusion_detach_total", "Fused members detached at their deadline."),
		FusionSolo:   reg.Counter("fusion_solo_fallback_total", "Fused-batch members re-run as units of one: detached by the deadline, in a panicked batch, or in a batch found empty."),

		Epochs: reg.Counter("epochs_total", "Serving epochs advanced."),
		EpochLatency: reg.Histogram("epoch_latency_seconds", "AdvanceEpoch wall time in seconds.",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
		WindowFill: reg.Histogram("fuse_window_fill", "Ad-hoc queries merged into one group-commit batch.",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64}),
		SeedHits:     reg.Counter("seed_hits_total", "Delta-narrowing seed windows that held."),
		SeedMisses:   reg.Counter("seed_misses_total", "Seeded selections that fell back to full range."),
		SeedHitRatio: reg.Gauge("seed_hit_ratio", "Cumulative seed hits / seeded selections."),
		SubsDropped:  reg.Counter("subs_dropped_total", "Epoch deliveries shed to slow subscribers."),

		ByzSuspected:   reg.Counter("byz_suspected_total", "Subtree roots suspected by challenge audits or partial trims."),
		ByzQuarantined: reg.Counter("byz_quarantined_total", "Nodes convicted by audit descent and quarantined."),
		IntegrityBound: reg.Gauge("integrity_bound", "Residual integrity bound of the last robust answer, in items."),

		Retries:          reg.Counter("retries_total", "Mid-sweep re-heal/resume attempts by the engine retry policy."),
		SweepsIncomplete: reg.Counter("sweeps_incomplete_total", "Convergecast sweeps that failed the completeness check."),
		DegradedAnswers:  reg.Counter("degraded_answers_total", "Answers served degraded from best-known bounds."),
		LKGServed:        reg.Counter("lkg_served_total", "Subscription deliveries served from the last-known-good cache."),
		BreakerState:     reg.Gauge("breaker_state", "Serve circuit breaker state: 0 closed, 1 half-open, 2 open."),
	}
}

var active atomic.Pointer[Sink]

// Active returns the installed sink, or nil when observability is off.
// This is the only call instrumentation sites pay when disabled.
func Active() *Sink { return active.Load() }

// Enable installs a fresh sink (replacing any previous one) and
// returns it.
func Enable() *Sink {
	s := NewSink()
	active.Store(s)
	return s
}

// EnableWith installs the given sink (for tests that pre-build one).
func EnableWith(s *Sink) { active.Store(s) }

// Disable uninstalls the sink; instrumentation reverts to free.
func Disable() { active.Store(nil) }

// EndpointServer is a running introspection endpoint (see obshttp).
type EndpointServer interface {
	// BoundAddr is the bound listen address (":0" resolved).
	BoundAddr() string
	Close() error
}

// endpoint is installed by obshttp's init. The indirection keeps
// net/http out of binaries that only record: linking the HTTP stack
// alone adds a per-op allocation to the alloc-gated benchmarks, so the
// hot-path packages must be able to import obs without it.
var endpoint func(addr string, s *Sink, healthy func() error) (EndpointServer, error)

// RegisterEndpoint installs the endpoint constructor ServeEndpoint
// delegates to. Called from obshttp's init; last registration wins.
func RegisterEndpoint(fn func(addr string, s *Sink, healthy func() error) (EndpointServer, error)) {
	endpoint = fn
}

// ServeEndpoint serves the introspection endpoint for s on addr. It
// fails unless the obshttp package is linked into the binary:
//
//	import _ "sensoragg/internal/obs/obshttp"
func ServeEndpoint(addr string, s *Sink, healthy func() error) (EndpointServer, error) {
	if endpoint == nil {
		return nil, errors.New(`obs: endpoint not linked; import _ "sensoragg/internal/obs/obshttp"`)
	}
	return endpoint(addr, s, healthy)
}
