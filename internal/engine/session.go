package engine

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"sensoragg/internal/byz"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/workload"
)

// Session caches the expensive parts of a deployment — the graph, the
// bounded-degree spanning tree, the generated workload, and the byz audits
// of the latest Submits (traffic whose audit keys alternate from one Submit
// to the next re-audits each time) — so repeated queries skip rebuilding and
// re-auditing them. It is safe for concurrent use: concurrent requests for
// one spec build its template once, and everyone else blocks on that build.
type Session struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry
	nets   map[Spec]*netEntry
	audits map[auditKey]*auditEntry

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

// auditKey fixes a robust job's byz audit and sketch cross-check. Neither
// reads a sensed value, so no overlay is in it.
type auditKey struct {
	spec Spec
	seed uint64
	p    int
}

// auditEntry is one key's record. Session.mu guards refs and writes of err.
type auditEntry struct {
	once sync.Once
	out  *byz.Outcome
	err  error
	refs int // pins by running Submits
}

// NewSession returns an empty session cache.
func NewSession() *Session {
	return &Session{
		graphs: make(map[graphKey]*graphEntry),
		nets:   make(map[Spec]*netEntry),
		audits: make(map[auditKey]*auditEntry),
	}
}

// pinAudits pins, until unpin, the audit of every robust job in jobs under
// an adversarial plan without drop/dup, for them and later Submits to share;
// unpin drops every entry that neither a running Submit pins nor jobs used.
func (s *Session) pinAudits(jobs []Job) (unpin func()) {
	var pinned []*auditEntry
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range jobs {
		if j := &jobs[i]; j.Query.Robust && j.Spec.Faults.Byz > 0 && !j.Spec.Faults.MessageLevel() {
			key := auditKey{j.Spec.Normalize(), j.runSeed(), j.Query.WithDefaults().SketchP}
			if a := s.audits[key]; a == nil || a.err != nil {
				s.audits[key] = new(auditEntry)
			}
			if a := s.audits[key]; !slices.Contains(pinned, a) {
				a.refs++
				pinned = append(pinned, a)
			}
		}
	}
	if pinned == nil {
		return func() {}
	}
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		maps.DeleteFunc(s.audits, func(_ auditKey, a *auditEntry) bool { return a.refs == 0 })
		for _, a := range pinned {
			a.refs--
		}
	}
}

// audit returns a robust job's report and RobustNet at sketch precision p
// over its fork nw of spec: the first job on a pinned key records them
// (byz.Record), the others replay the record and still pay it in full; a
// failed record fails them all, and the next pin starts afresh. A job on no
// pinned key records alone.
func (s *Session) audit(nw *netsim.Network, spec Spec, view *spantree.TreeView, p int) (rep *byz.Report, rnet *byz.RobustNet, err error) {
	s.mu.Lock()
	a := s.audits[auditKey{spec, nw.Seed(), p}]
	s.mu.Unlock()
	if a == nil {
		a = new(auditEntry)
	}
	a.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine: query panicked: %v", r)
				defer panic(r)
			}
			s.mu.Lock()
			a.err = err
			s.mu.Unlock()
		}()
		a.out, rep, rnet, err = byz.Record(nw, view, byz.WithSketchP(p))
	})
	if rnet == nil && a.err == nil { // recorded by another job
		rep, rnet = a.out.Replay(nw, view, byz.WithSketchP(p))
	}
	return rep, rnet, a.err
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
		defer recovered(&e.err, "graph", spec)
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

// recovered turns a panic in a cache entry's build into its error: a panic
// would poison the once (done, yet nothing built and no error).
func recovered(err *error, what string, spec Spec) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("engine: building %s for %s: %v", what, spec, r)
	}
}

// Template returns the cached template network for spec: graph, tree, and
// items in their original state, one reading per node. The template is
// never run directly — every run forks it — so its meter stays empty and
// its items pristine. Fault configuration is stripped from the cache key
// (faults are injected on the forked run networks), so deployments
// differing only in fault rates share one template.
func (s *Session) Template(spec Spec) (*netsim.Network, error) {
	e := s.template(spec)
	return e.template, e.err
}

// template returns spec's template entry, building it on first use.
func (s *Session) template(spec Spec) *netEntry {
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
		defer recovered(&e.err, "template", spec)
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
	return e
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
	t := s.template(spec)
	if t.err != nil {
		return nil, fmt.Errorf("engine: building template for %s: %w", spec, t.err)
	}
	nw := t.pool.Get(runSeed)
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
