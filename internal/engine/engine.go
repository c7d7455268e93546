package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
)

// Job is one query against one deployment. RunSeed seeds the forked
// network's node random streams; 0 means "use the spec's seed", which makes
// a single job bit-identical to constructing the network serially with
// netsim.New and running the query directly. Overlay, when non-nil,
// replaces the forked network's sensed values before execution — the
// serving layer's epoch injection.
type Job struct {
	ID      string   `json:"id,omitempty"`
	Spec    Spec     `json:"spec"`
	Query   Query    `json:"query"`
	RunSeed uint64   `json:"run_seed,omitempty"`
	Overlay *Overlay `json:"overlay,omitempty"`
}

// Overlay injects externally evolved sensed values into a job's forked run
// network: Values replaces the full item multiset in node order (the
// AllItems order), clamped to the deployment's domain, before the query
// executes. The serving layer uses it to run subscriptions against epoch
// state the epoch scheduler evolves outside the fork pool. Jobs sharing
// one *Overlay (same pointer) against the same deployment may fuse; jobs
// with different overlays never do — they see different multisets.
type Overlay struct {
	// Epoch labels the injected state (informational; surfaced by serve).
	Epoch int `json:"epoch"`
	// Values is the full multiset in node order; its length must equal the
	// deployment's item count.
	Values []uint64 `json:"values"`
}

// apply writes the overlay's values over the forked network's items,
// clamped to the domain like every drift update serve applies.
func (o *Overlay) apply(nw *netsim.Network) error {
	if len(o.Values) != nw.NumItems() {
		return fmt.Errorf("engine: overlay carries %d values for %d items", len(o.Values), nw.NumItems())
	}
	// A deployment holds one reading per node (Session.Template), so node
	// id's value is Values[id]; walking Tree.Order visits the nodes in the
	// order netsim stores them.
	for _, id := range nw.Tree.Order {
		v := min(o.Values[id], nw.MaxX)
		nw.Nodes[id].Items[0] = netsim.Item{Orig: v, Cur: v, Active: true}
	}
	return nil
}

func (j Job) runSeed() uint64 {
	if j.RunSeed != 0 {
		return j.RunSeed
	}
	return j.Spec.Normalize().Seed
}

// Result reports one executed job.
//
// The JSON encoding is a stable schema — aggsim -json, sensorql, loadgen,
// and the serve layer all emit it, and downstream tooling may rely on it:
//
//   - Identification: "id" (caller's job ID), "spec", "query" (normalized,
//     defaults resolved; "where" is a WHERE predicate, absent when the
//     query covers every item).
//   - Answer: "value" (+"values" for multi-valued kinds), "detail";
//     "truth"/"truths"/"truth_known"/"exact" carry the simulator-side
//     ground truth comparison.
//   - Communication: "bits_per_node" (the paper measure: max over nodes of
//     bits sent+received), "total_bits", "messages".
//   - Faults: "crashed", "unreachable", "repair_bits" (healed runs only).
//   - Fusion: "fused" marks a shared-sweep batch member; "shared_sweeps"
//     is the probe-plane schedule length that answered the query (the
//     batch's shared schedule when fused, the query's own otherwise).
//   - Delta-narrowing: "seeded_sweeps" counts the sweeps biased by the
//     query's seed windows; "seed_hit" reports that every hinted rank's
//     answer landed inside its window (false on any miss or when no valid
//     window was attached). Seeding never changes "value".
//   - Mid-flight fault tolerance: "retries", "degraded", "survivor_frac"
//     report a phased fault plan's retry outcome (see the field comments).
//   - "wall_ns" is host-side wall time; "error" is set iff the job failed.
//
// Fields marked omitempty vanish at their zero values; absence means the
// zero value, never "unknown".
type Result struct {
	ID    string `json:"id,omitempty"`
	Spec  Spec   `json:"spec"`
	Query Query  `json:"query"`

	// Value is the protocol's answer; Detail elaborates (iterations,
	// sketch width, ...).
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
	// Values carries the full answer vector of multi-valued kinds
	// (quantiles, fused multi-aggregates); Value then holds Values[0].
	Values []float64 `json:"values,omitempty"`
	// Truth is the simulator-side ground truth when TruthKnown; Truths is
	// its vector counterpart for multi-valued kinds.
	Truth      float64   `json:"truth,omitempty"`
	Truths     []float64 `json:"truths,omitempty"`
	TruthKnown bool      `json:"truth_known"`
	// Exact reports Value == Truth — elementwise over the vectors for
	// multi-valued kinds (only meaningful when TruthKnown).
	Exact bool `json:"exact"`

	// BitsPerNode is the paper's complexity measure for this run: max over
	// nodes of bits sent+received.
	BitsPerNode int64 `json:"bits_per_node"`
	TotalBits   int64 `json:"total_bits"`
	Messages    int64 `json:"messages"`

	// Fault-plan runs (Spec.Faults active with structural faults)
	// additionally report the fault impact: crashed nodes, survivors the
	// self-healing repair could not reconnect, and the repair traffic in
	// bits (already included in the totals above — repair is charged like
	// any other protocol traffic).
	Crashed     int   `json:"crashed,omitempty"`
	Unreachable int   `json:"unreachable,omitempty"`
	RepairBits  int64 `json:"repair_bits,omitempty"`

	// Robust runs (Query.Robust) report the byz tier's integrity
	// accounting: subtree roots that failed a challenge audit or needed a
	// partial trimmed, nodes convicted and quarantined (and routed around
	// by the healing wave), the audit rounds and traffic, and the
	// residual integrity bound — the maximum number of item positions the
	// suspected-but-unquarantined sectors could still displace a rank
	// answer by. IntegrityBound 0 means every partial satisfied every
	// bound: the answer is exact over the surviving honest population.
	Robust         bool   `json:"robust,omitempty"`
	Suspected      int    `json:"suspected,omitempty"`
	Quarantined    int    `json:"quarantined,omitempty"`
	IntegrityBound uint64 `json:"integrity_bound,omitempty"`
	AuditRounds    int    `json:"audit_rounds,omitempty"`
	AuditBits      int64  `json:"audit_bits,omitempty"`

	// Fused marks a result answered by a shared-sweep fusion batch
	// (WithFusion): its communication fields price the whole shared
	// probe plane, which served every member of the batch at once.
	// SharedSweeps is the number of probe sweeps in the plane that
	// answered this query — the batch's shared schedule for a fused
	// member, the query's own schedule for a solo batched selection.
	Fused        bool `json:"fused,omitempty"`
	SharedSweeps int  `json:"shared_sweeps,omitempty"`

	// SeededSweeps and SeedHit report the delta-narrowing outcome of a
	// seeded selection query (Query.SeedWindows); see the schema comment.
	SeededSweeps int  `json:"seeded_sweeps,omitempty"`
	SeedHit      bool `json:"seed_hit,omitempty"`

	// Mid-flight fault tolerance (phased fault plans, Spec.Retry):
	// "retries" counts the re-heal/resume attempts the run consumed;
	// "degraded" marks an answer assembled from best-known bounds after the
	// retry budget ran out (TruthKnown is false — there is no exact truth
	// claim to compare against); "survivor_frac" is the fraction of the
	// deployment's nodes the final answer covers, reported whenever a
	// phased fault actually fired. A degraded result is not Failed():
	// graceful degradation returns the best available answer, not an error.
	Retries      int     `json:"retries,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	SurvivorFrac float64 `json:"survivor_frac,omitempty"`

	WallNS int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// Failed reports whether the job errored (including deadline overruns).
func (r Result) Failed() bool { return r.Error != "" }

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent query execution (0 → GOMAXPROCS). The
	// execution units of one Submit divide the workers among them: each
	// unit's tree sweeps run on a team of max(1, Workers ÷ units).
	Workers int
	// Timeout is each unit's deadline (0 → none). A core.Plane stops at it
	// between sweeps; a kind's own arm, the heal and the robust audit never
	// read it and run to completion. A unit of one that ends at or past it
	// fails with the deadline error; a fusion group's members the stop left
	// unanswered run again as units of one, each with a deadline of its own.
	// No run outlives Submit.
	Timeout time.Duration
	// Session supplies the topology cache (nil → a fresh one).
	Session *Session
}

// Engine executes query jobs on a bounded worker pool.
type Engine struct {
	workers int
	timeout time.Duration
	session *Session
	// treeWorkers pins every run's tree-kernel team
	// (spantree.FastEngine.SetWorkers): 1 sequential, k > 1 a team of k.
	// Zero in production, where each unit of a Submit gets its share of the
	// pool (teamSize); engine tests set it to hold the schedules to each
	// other.
	treeWorkers int
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := opts.Session
	if s == nil {
		s = NewSession()
	}
	return &Engine{workers: w, timeout: opts.Timeout, session: s}
}

// Workers returns the pool's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Session returns the engine's topology cache.
func (e *Engine) Session() *Session { return e.session }

// teamSize is the tree-kernel team every run of a Submit with the given
// number of units executes on: the pool's workers divided among the
// units, so a Submit of one unit sweeps on every core while one of many
// keeps its parallelism across units and sweeps each sequentially.
func (e *Engine) teamSize(units int) int {
	if e.treeWorkers != 0 {
		return e.treeWorkers
	}
	return max(1, e.workers/max(1, units))
}

// runAll is Submit's body, with its ordering and failure contract: every
// result is written at its job's index, and the jobs of a unit that finds
// ctx done before it starts are marked with the context error. With fuse
// set, fusable jobs against one deployment become a fusion group run as
// one unit (see fusion.go); every other job is a unit of one. The calling
// goroutine is worker 0, joined by min(Workers, units) − 1 helpers, each
// worker running the next unit none has taken, so a Submit of one unit
// starts no goroutine. A twin gets its job's result.
func (e *Engine) runAll(ctx context.Context, jobs []Job, fuse bool) []Result {
	results := make([]Result, len(jobs))
	planned := planUnits(jobs, fuse)
	planned.team = e.teamSize(len(planned.units))
	p := planned // never reassigned, so the helpers capture it by value
	defer e.session.pinAudits(jobs)()
	if sk := obs.Active(); sk != nil {
		e.obsSubmit(sk, jobs, p)
	}
	if helpers := min(e.workers, len(p.units)) - 1; helpers > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(helpers)
		help := func() {
			defer wg.Done()
			e.work(ctx, jobs, p, results, &next)
		}
		for range helpers {
			go help()
		}
		e.work(ctx, jobs, p, results, &next)
		wg.Wait()
	} else {
		for _, u := range p.units {
			e.runUnit(ctx, jobs, p, u, results)
		}
	}
	for i, j := range p.twin {
		if i != j {
			results[i] = results[j]
			results[i].ID = jobs[i].ID
		}
	}
	return results
}

// work runs p's units on the calling goroutine, each the next one no
// worker has taken (next counts the units taken), until none is left.
func (e *Engine) work(ctx context.Context, jobs []Job, p plan, results []Result, next *atomic.Int64) {
	for u := next.Add(1) - 1; u < int64(len(p.units)); u = next.Add(1) - 1 {
		e.runUnit(ctx, jobs, p, p.units[u], results)
	}
}

func failedResult(job Job, err error) Result {
	return Result{ID: job.ID, Spec: job.Spec.Normalize(), Query: job.Query.WithDefaults(), Error: err.Error()}
}

// fail fails the jobs idxs with err.
func fail(jobs []Job, idxs []int, results []Result, err error) {
	for _, i := range idxs {
		results[i] = failedResult(jobs[i], err)
	}
}

// fork instantiates job's run network on spec with its overlay applied.
func (e *Engine) fork(spec Spec, job *Job) (*netsim.Network, error) {
	nw, err := e.session.Instantiate(spec, job.runSeed())
	if err == nil && job.Overlay != nil {
		if err = job.Overlay.apply(nw); err != nil {
			nw.Release()
			nw = nil
		}
	}
	return nw, err
}

// resultFrom completes r, whose answer the run wrote, with the job's
// metering: its spec and resolved query, the run's meter delta and wall
// time, and Exact — Value == Truth, elementwise over the vectors of a
// multi-valued kind.
func resultFrom(r *Result, spec Spec, q Query, d netsim.Delta, wall time.Duration) {
	r.Spec, r.Query = spec, q.WithDefaults()
	r.BitsPerNode, r.TotalBits, r.Messages = d.MaxPerNode, d.TotalBits, d.Messages
	r.WallNS = wall.Nanoseconds()
	r.Exact = r.TruthKnown && r.Value == r.Truth
	if r.TruthKnown && len(r.Truths) == len(r.Values) && len(r.Values) > 0 {
		r.Exact = slices.Equal(r.Values, r.Truths)
	}
}
