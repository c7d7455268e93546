// Command aggsim runs aggregate queries on simulated sensor networks and
// reports the answer, the simulator-side ground truth, and the per-node
// communication statistics — the paper's complexity measure.
//
// All execution goes through the concurrent query engine
// (internal/engine): a single query is an engine batch of one, and
// -parallel N fans the same query out over N independently-seeded networks
// on a bounded worker pool. Results are deterministic: each run is
// bit-identical to executing its network serially.
//
// Fault plans (-crash/-drop/-dup/-linkfail/-byz) inject deterministic
// faults per run: structural faults trigger a self-healing tree repair
// before the query, Byzantine nodes (-byz, discipline -byzmode) lie in
// their convergecast partials, and the report gains
// crashed/unreachable/repair-bits columns. -robust answers on the
// Byzantine-robust tier — liars are audited and quarantined, sector
// partials are trimmed to capacity, and each answer carries an
// integrity bound.
//
// Examples:
//
//	aggsim -topology grid -n 4096 -workload zipf -query median
//	aggsim -query apxmedian2 -beta 0.015625 -eps 0.25 -n 16384
//	aggsim -query distinct -workload fewdistinct
//	aggsim -query median -parallel 8 -workers 4 -json report.json
//	aggsim -query median -n 576 -crash 0.05 -parallel 4
//	aggsim -query median -parallel 8 -fuse
//
// -fuse turns the fan-out into a *fusion batch*: all runs target one
// deployment (every job uses -seed) and the engine merges their probe
// sweeps into one shared broadcast–convergecast schedule, so 8 medians
// cost roughly one median's tree traffic. Fused results are marked
// [fused] and carry shared_sweeps in the JSON report.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
)

type options struct {
	topo     string
	n        int
	wl       string
	maxX     uint64
	seed     uint64
	query    string
	k        uint64
	phi      float64
	phis     string
	aggs     string
	eps      float64
	beta     float64
	sketchP  int
	children int
	probeW   int

	crash     float64
	drop      float64
	dup       float64
	linkfail  float64
	byz       float64
	byzMode   string
	robust    bool
	faultSeed uint64

	parallel int
	fuse     bool
	workers  int
	timeout  time.Duration
	jsonOut  string
}

// registerFlags binds the CLI surface to o — split from main so the
// flag-parsing tests drive a private FlagSet through the same definitions.
func registerFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.topo, "topology", "grid", "line|ring|star|grid|densegrid|torus|complete|btree|barbell|rgg")
	fs.IntVar(&o.n, "n", 1024, "number of nodes")
	fs.StringVar(&o.wl, "workload", "uniform", "uniform|zipf|gaussian|exponential|bimodal|constant|fewdistinct|drift")
	fs.Uint64Var(&o.maxX, "maxx", 0, "value domain bound X (default 4·n)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.query, "query", "median", strings.Join(engine.Kinds(), "|"))
	fs.Uint64Var(&o.k, "k", 0, "rank for -query os (default N/2)")
	fs.Float64Var(&o.phi, "phi", 0.5, "quantile for -query quantile")
	fs.StringVar(&o.phis, "phis", "0.25,0.5,0.9", "comma-separated quantile fractions for -query quantiles")
	fs.StringVar(&o.aggs, "aggs", "", "comma-separated aggregates for -query fused (default count,sum,min,max)")
	fs.Float64Var(&o.eps, "eps", 0.25, "failure probability ε for randomized queries")
	fs.Float64Var(&o.beta, "beta", 1.0/64, "precision β for apxmedian2")
	fs.IntVar(&o.sketchP, "sketchp", core.DefaultSketchP, "LogLog register exponent p (m=2^p)")
	fs.IntVar(&o.children, "maxchildren", netsim.DefaultMaxChildren, "spanning-tree degree bound (0=unbounded)")
	fs.IntVar(&o.probeW, "probewidth", 0,
		fmt.Sprintf("COUNT probes batched per selection sweep (0 = engine default %d, 1 = classic binary search)", core.DefaultProbeWidth))
	fs.Float64Var(&o.crash, "crash", 0, "fault plan: node crash probability (root exempt)")
	fs.Float64Var(&o.drop, "drop", 0, "fault plan: per-message loss probability")
	fs.Float64Var(&o.dup, "dup", 0, "fault plan: per-message duplication probability")
	fs.Float64Var(&o.linkfail, "linkfail", 0, "fault plan: permanent link failure probability")
	fs.Float64Var(&o.byz, "byz", 0, "fault plan: Byzantine (lying) node probability (root exempt)")
	fs.StringVar(&o.byzMode, "byzmode", "", "Byzantine lie discipline: corrupt|equivocate|collude (default corrupt)")
	fs.BoolVar(&o.robust, "robust", false, "answer on the Byzantine-robust tier: audit + quarantine liars, trim sector partials, report integrity bounds")
	fs.Uint64Var(&o.faultSeed, "faultseed", 0, "pin the fault stream to this seed (0 = per-run seed)")
	fs.IntVar(&o.parallel, "parallel", 1, "run the query on this many independently-seeded networks")
	fs.BoolVar(&o.fuse, "fuse", false, "fuse the -parallel runs into one shared-sweep batch on a single deployment (all runs use -seed; selection/aggregate kinds only)")
	fs.IntVar(&o.workers, "workers", 0, "worker-pool size (default GOMAXPROCS)")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query deadline (0 = none)")
	fs.StringVar(&o.jsonOut, "json", "", "write the batch report as JSON to this file")
}

func main() {
	var o options
	registerFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "aggsim: %v\n", err)
		os.Exit(1)
	}
}

func (o options) spec(seed uint64) engine.Spec {
	// The CLI keeps the historical contract "0 = unbounded"; the engine
	// spec uses 0 for "default bound" and negative for unbounded.
	children := o.children
	if children == 0 {
		children = -1
	}
	return engine.Spec{
		Topology:    o.topo,
		N:           o.n,
		Workload:    o.wl,
		MaxX:        o.maxX,
		Seed:        seed,
		MaxChildren: children,
		Faults: faults.Spec{
			Crash:    o.crash,
			LinkFail: o.linkfail,
			Drop:     o.drop,
			Dup:      o.dup,
			Byz:      o.byz,
			ByzMode:  o.byzMode,
			Seed:     o.faultSeed,
		},
	}
}

func (o options) querySpec() (engine.Query, error) {
	q := engine.Query{
		Kind:       o.query,
		K:          o.k,
		Phi:        o.phi,
		Eps:        o.eps,
		Beta:       o.beta,
		SketchP:    o.sketchP,
		ProbeWidth: o.probeW,
		Robust:     o.robust,
	}
	if o.query == engine.KindQuantiles {
		for _, f := range strings.Split(o.phis, ",") {
			phi, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return q, fmt.Errorf("-phis: bad fraction %q: %w", f, err)
			}
			q.Phis = append(q.Phis, phi)
		}
	}
	if o.aggs != "" {
		for _, a := range strings.Split(o.aggs, ",") {
			q.Aggs = append(q.Aggs, strings.TrimSpace(a))
		}
	}
	return q, nil
}

func run(o options) error {
	if o.parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1")
	}
	query, err := o.querySpec()
	if err != nil {
		return err
	}
	jobs := make([]engine.Job, o.parallel)
	for i := range jobs {
		// Fusion amortizes sweeps across queries at one deployment, so
		// -fuse pins every run to the same seed; the default fan-out keeps
		// its independently-seeded networks.
		seed := o.seed + uint64(i)
		if o.fuse {
			seed = o.seed
		}
		jobs[i] = engine.Job{
			ID:    fmt.Sprintf("run-%d", i),
			Spec:  o.spec(seed),
			Query: query,
		}
	}

	eng := engine.New(engine.Options{Workers: o.workers, Timeout: o.timeout})
	var opts []engine.SubmitOption
	if o.fuse {
		opts = append(opts, engine.WithFusion())
	}

	// Report the actual node count (grid/torus round down to a square),
	// not the requested one; warming the template here also keeps topology
	// construction out of the per-run wall clock.
	spec := jobs[0].Spec.Normalize()
	actualN := spec.N
	if tmpl, err := eng.Session().Template(spec); err == nil {
		actualN = tmpl.N()
	}

	start := time.Now()
	results := eng.Submit(context.Background(), jobs, opts...)
	wall := time.Since(start)
	report := engine.Collect(eng, results, wall)

	fmt.Printf("network: %s, N=%d, X=%d, workload %s — %d run(s) on %d worker(s)\n",
		spec.Topology, actualN, spec.MaxX, spec.Workload, o.parallel, eng.Workers())

	var firstErr error
	for _, r := range results {
		if r.Failed() {
			fmt.Printf("%s (seed %d): FAILED: %s\n", r.ID, r.Spec.Seed, r.Error)
			if firstErr == nil {
				firstErr = fmt.Errorf("%d of %d runs failed", report.Failed, report.Jobs)
			}
			continue
		}
		line := fmt.Sprintf("%s (seed %d): answer %s", r.ID, r.Spec.Seed,
			engine.FormatValues(r.Value, r.Values))
		if r.Detail != "" {
			line += " (" + r.Detail + ")"
		}
		if r.Fused {
			line += " [fused]"
		}
		if r.TruthKnown {
			line += fmt.Sprintf(", truth %s", engine.FormatValue(r.Truth))
			if r.Exact {
				line += " ✓"
			}
		}
		if r.Crashed > 0 || r.RepairBits > 0 {
			line += fmt.Sprintf(" [%d crashed, %d unreachable, repair %d bits]",
				r.Crashed, r.Unreachable, r.RepairBits)
		}
		if r.Robust {
			line += fmt.Sprintf(" [robust: %d quarantined, %d suspected, bound ±%d items, audit %d bits]",
				r.Quarantined, r.Suspected, r.IntegrityBound, r.AuditBits)
		}
		fmt.Printf("%s — %d bits/node, %d total bits, %d messages\n",
			line, r.BitsPerNode, r.TotalBits, r.Messages)
	}

	for _, s := range report.Summary {
		line := fmt.Sprintf("summary[%s]: %d runs (%d failed, %d exact), mean %.1f bits/node (max %d)",
			s.Kind, s.Runs, s.Failed, s.ExactRuns, s.MeanBitsPerNode, s.MaxBitsPerNode)
		if s.MeanRelErr > 0 {
			line += fmt.Sprintf(", mean rel err %.3f", s.MeanRelErr)
		}
		if s.MeanRepairBits > 0 {
			line += fmt.Sprintf(", mean repair %.0f bits", s.MeanRepairBits)
		}
		fmt.Printf("%s, batch wall %v\n", line, wall.Round(time.Millisecond))
	}

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return fmt.Errorf("creating %s: %w", o.jsonOut, err)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("report: wrote %s\n", o.jsonOut)
	}
	return firstErr
}
