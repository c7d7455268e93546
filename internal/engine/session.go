package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// Session caches the expensive, immutable parts of a deployment — the
// graph, the bounded-degree spanning tree, and the generated workload — so
// repeated queries against the same network skip the rebuild. A Session is
// safe for concurrent use; concurrent requests for the same spec build the
// template exactly once and everyone else blocks on that build.
type Session struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	nets   map[Spec]*netEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type graphEntry struct {
	once  sync.Once
	graph *topology.Graph
	tree  *topology.Tree
	err   error
}

type netEntry struct {
	once     sync.Once
	template *netsim.Network
	pool     *netsim.ForkPool
	err      error
}

// NewSession returns an empty session cache.
func NewSession() *Session {
	return &Session{
		graphs: make(map[graphKey]*graphEntry),
		nets:   make(map[Spec]*netEntry),
	}
}

// Graph returns the cached (graph, tree) pair for spec, building it on
// first use.
func (s *Session) Graph(spec Spec) (*topology.Graph, *topology.Tree, error) {
	spec = spec.Normalize()
	key := spec.graphKey()
	s.mu.Lock()
	e, ok := s.graphs[key]
	if !ok {
		e = &graphEntry{}
		s.graphs[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		// A panic would poison the once (done, yet graph == nil and
		// err == nil), so convert it to a cached error instead.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("engine: building graph for %s: %v", spec, r)
			}
		}()
		// Every generator topology.Build registers is a valid Spec.Topology.
		g, err := topology.Build(spec.Topology, spec.N, spec.Seed)
		if err != nil {
			e.err = err
			return
		}
		maxChildren := spec.MaxChildren
		if maxChildren < 0 {
			maxChildren = 0 // netsim convention: 0 disables bounding
		}
		e.graph = g
		e.tree = netsim.BuildTree(g, 0, maxChildren)
	})
	return e.graph, e.tree, e.err
}

// Template returns the cached template network for spec: graph, tree, and
// items in their original state, one reading per node. The template is
// never run directly — every run forks it — so its meter stays empty and
// its items pristine. Fault configuration is stripped from the cache key
// (faults are injected on the forked run networks), so deployments
// differing only in fault rates share one template.
func (s *Session) Template(spec Spec) (*netsim.Network, error) {
	spec = spec.Normalize().templateKey()
	s.mu.Lock()
	e, ok := s.nets[spec]
	if !ok {
		e = &netEntry{}
		s.nets[spec] = e
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	s.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("engine: building template for %s: %v", spec, r)
			}
		}()
		if err := validWorkload(spec.Workload); err != nil {
			e.err = err
			return
		}
		g, tree, err := s.Graph(spec)
		if err != nil {
			e.err = err
			return
		}
		values := workload.Generate(workload.Kind(spec.Workload), g.N(), spec.MaxX, spec.Seed)
		items := make([][]uint64, len(values))
		for i, v := range values {
			items[i] = []uint64{v}
		}
		e.template = netsim.NewFromTree(g, tree, items, spec.MaxX, spec.Seed)
		e.pool = netsim.NewForkPool(e.template)
	})
	return e.template, e.err
}

// forkPool returns the template's run-network pool, building the template
// on first use.
func (s *Session) forkPool(spec Spec) (*netsim.ForkPool, error) {
	spec = spec.Normalize().templateKey()
	if _, err := s.Template(spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e := s.nets[spec]
	s.mu.Unlock()
	return e.pool, nil
}

// Instantiate forks a fresh per-run network for spec: shared immutable
// graph/tree, private nodes and meter, node RNG streams seeded from
// runSeed. Instantiate(spec, spec.Seed) reproduces exactly the network a
// serial caller would get from netsim.New with the same options. When the
// spec carries an active fault plan, the fork gets its own plan derived
// from runSeed (or the plan's pinned seed), so concurrent faulty runs
// share no fault state either.
//
// The returned network comes from the template's ForkPool: callers that
// finish with it should hand it back with Network.Release so later runs
// reset it in place instead of re-forking ~N nodes. Releasing is optional
// — an unreleased network is simply collected — and a pooled reset is
// bit-identical to a fresh fork.
func (s *Session) Instantiate(spec Spec, runSeed uint64) (*netsim.Network, error) {
	spec = spec.Normalize()
	// Validate before checking a network out of the pool: an invalid spec
	// must not strand a checked-out ~N-node fork on the error path.
	if spec.Faults.Active() {
		if err := spec.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	pool, err := s.forkPool(spec)
	if err != nil {
		return nil, fmt.Errorf("engine: building template for %s: %w", spec, err)
	}
	nw := pool.Get(runSeed)
	if spec.Faults.Active() {
		nw.Faults = faults.New(spec.Faults, nw.N(), nw.Root(), runSeed)
	}
	return nw, nil
}

// validWorkload rejects unknown workload names with an error instead of
// letting workload.Generate panic.
func validWorkload(name string) error {
	for _, k := range workload.Kinds() {
		if string(k) == name {
			return nil
		}
	}
	return fmt.Errorf("engine: unknown workload %q (known: %v)", name, workload.Kinds())
}

// Stats reports cache behaviour: template hits and misses so far.
func (s *Session) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// String renders a spec compactly for error messages and labels.
func (s Spec) String() string {
	base := fmt.Sprintf("%s/N=%d/%s/X=%d/seed=%d", s.Topology, s.N, s.Workload, s.MaxX, s.Seed)
	if s.Faults.Active() {
		base += "/faults(" + s.Faults.String() + ")"
	}
	return base
}
