// Package engine is the concurrent query-execution subsystem: it runs many
// aggregate queries (median, quantiles, distinct counts, sums, sketch
// variants) across many independently-seeded simulated networks in
// parallel, on a worker pool with bounded concurrency and per-query
// deadlines.
//
// Three pieces make concurrent execution both fast and honest:
//
//   - Session caches constructed graphs, bounded-degree spanning trees, and
//     generated workloads, so repeated queries against the same deployment
//     skip the O(N) rebuild — the hot path when a console or a batch issues
//     many queries at one network.
//   - Every run executes on a netsim.Network forked from the cached
//     template: the immutable graph/tree are shared, but nodes (items,
//     scratch, RNG streams) and the bit meter are per-run, so concurrent
//     runs share no mutable state and results are bit-identical to serial
//     execution.
//   - A collector aggregates per-run answers and the paper's bits-per-node
//     cost into a JSON report (see report.go), so batch runs feed the bench
//     trajectory directly.
package engine

import (
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/workload"
)

// Spec identifies a simulated deployment. Two jobs with equal (normalized)
// specs execute against networks forked from one cached template.
type Spec struct {
	// Topology is one of topology.Kinds():
	// line|ring|star|grid|densegrid|torus|complete|btree|barbell|rgg.
	Topology string `json:"topology"`
	// N is the requested node count (grid/torus round down to a square).
	N int `json:"n"`
	// Workload is the input distribution (workload.Kind).
	Workload string `json:"workload"`
	// MaxX is the value domain bound X; 0 means the conventional 4·N.
	MaxX uint64 `json:"maxx"`
	// Seed drives workload generation and the node random streams.
	Seed uint64 `json:"seed"`
	// MaxChildren bounds the spanning tree degree: 0 means the netsim
	// default, negative disables bounding.
	MaxChildren int `json:"max_children,omitempty"`
	// Faults configures deterministic fault injection for every run of
	// this deployment (zero value = reliable network). Each run gets its
	// own plan forked from its run seed, so batch sweeps stay
	// bit-identical to serial execution; structural faults (crashes, dead
	// links) trigger a self-healing tree repair before the query executes,
	// with the repair traffic charged to the run's meter.
	Faults faults.Spec `json:"faults,omitempty"`
	// Retry governs mid-flight fault tolerance for phased fault plans
	// (faults that strike at a sweep boundary while a query is running):
	// on a detected incomplete sweep the engine re-heals the tree,
	// recomputes the survivor population, and resumes the selection search
	// from its checkpointed bounds, up to Budget times. The zero value
	// means no retries — the first mid-sweep failure degrades the answer
	// (Result.Degraded) instead of erroring.
	Retry Retry `json:"retry,omitempty"`
}

// Retry is the engine's mid-flight retry policy. It is comparable (part of
// the Spec fusion key) and stripped from the template cache key like
// Faults: retrying is a run-time behaviour, not a deployment property.
type Retry struct {
	// Budget is the number of re-heal/resume attempts allowed per query
	// (or per fusion batch) after a mid-sweep failure. 0 degrades on the
	// first failure.
	Budget int `json:"budget,omitempty"`
}

// DefaultTopology and friends fill zero-valued Spec fields.
const (
	DefaultTopology = "grid"
	DefaultWorkload = string(workload.Uniform)
	DefaultN        = 1024
)

// Normalize fills defaults so that equal deployments hash equally.
func (s Spec) Normalize() Spec {
	if s.Topology == "" {
		s.Topology = DefaultTopology
	}
	if s.N == 0 {
		s.N = DefaultN
	}
	if s.Workload == "" {
		s.Workload = DefaultWorkload
	}
	if s.MaxX == 0 {
		s.MaxX = uint64(4 * s.N)
	}
	if s.MaxChildren == 0 {
		s.MaxChildren = netsim.DefaultMaxChildren
	}
	return s
}

// graphKey identifies a cached (graph, tree) pair. Only random geometric
// graphs depend on the seed; for every other topology the seed is zeroed so
// differently-seeded deployments of the same shape share one tree.
type graphKey struct {
	topology    string
	n           int
	maxChildren int
	seed        uint64
}

func (s Spec) graphKey() graphKey {
	k := graphKey{topology: s.Topology, n: s.N, maxChildren: s.MaxChildren}
	if s.Topology == "rgg" {
		k.seed = s.Seed
	}
	return k
}

// templateKey strips the per-run fault configuration: faults are injected
// on the forked run networks, never on the cached template, so deployments
// differing only in fault rates share one template — a fault-rate sweep
// builds its graph, tree, and workload exactly once. The retry policy is
// likewise a run-time behaviour, not a deployment property.
func (s Spec) templateKey() Spec {
	s.Faults = faults.Spec{}
	s.Retry = Retry{}
	return s
}
