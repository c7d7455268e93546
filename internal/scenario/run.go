package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/obs"
)

// Sample is one JSONL row: one query answered in one epoch of one rerun.
// Every field is a pure function of the scenario spec and its seeds —
// wall-clock time deliberately never appears here, so two invocations of
// the same suite emit byte-identical JSONL (timings live in the summary
// and the markdown report instead).
type Sample struct {
	Kind     string `json:"kind"` // "sample"
	Scenario string `json:"scenario"`
	Rerun    int    `json:"rerun"`
	Epoch    int    `json:"epoch"`
	Phase    string `json:"phase"`
	Query    string `json:"query"`

	Value      float64   `json:"value"`
	Values     []float64 `json:"values,omitempty"`
	Truth      float64   `json:"truth"`
	TruthKnown bool      `json:"truth_known"`
	Exact      bool      `json:"exact"`
	// RelErr is |value-truth|/max(1,|truth|) against the engine's
	// survivor ground truth — elementwise-averaged for vector answers.
	RelErr float64 `json:"rel_err"`

	BitsPerNode  int64 `json:"bits_per_node"`
	TotalBits    int64 `json:"total_bits"`
	RepairBits   int64 `json:"repair_bits"`
	Crashed      int   `json:"crashed"`
	Unreachable  int   `json:"unreachable"`
	SharedSweeps int   `json:"shared_sweeps"`
	Fused        bool  `json:"fused"`

	// Mid-sweep resilience accounting: how many detect → re-heal →
	// resume rounds the answer took, whether the retry budget ran out
	// (best-known bounds, no truth claim), and the surviving fraction of
	// the deployment the answer covers.
	Retries      int     `json:"retries,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	SurvivorFrac float64 `json:"survivor_frac,omitempty"`

	Robust         bool   `json:"robust,omitempty"`
	Suspected      int    `json:"suspected,omitempty"`
	Quarantined    int    `json:"quarantined,omitempty"`
	IntegrityBound uint64 `json:"integrity_bound,omitempty"`

	Err string `json:"error,omitempty"`
}

// EpochRecord is one JSONL row per epoch carrying the probe-plane
// counters for that epoch, read as deltas from the internal/obs sink the
// rest of the stack already records into — the harness re-derives none of
// them. Deterministic for the same reason samples are: the runner
// executes epochs on one worker.
type EpochRecord struct {
	Kind     string `json:"kind"` // "epoch"
	Scenario string `json:"scenario"`
	Rerun    int    `json:"rerun"`
	Epoch    int    `json:"epoch"`
	Phase    string `json:"phase"`

	Sweeps        int64 `json:"sweeps"`
	Broadcasts    int64 `json:"broadcasts"`
	Probes        int64 `json:"probes"`
	SoloQueries   int64 `json:"solo_queries"`
	FusionBatches int64 `json:"fusion_batches"`
	FusionMembers int64 `json:"fusion_members"`
}

// RerunStats aggregates one rerun.
type RerunStats struct {
	Rerun   int `json:"rerun"`
	Samples int `json:"samples"`
	Errors  int `json:"errors"`
	// MeanRelErr averages RelErr over the rerun's truth-known samples
	// (all phases); InjectMeanRelErr restricts to the inject phase.
	MeanRelErr       float64 `json:"mean_rel_err"`
	InjectMeanRelErr float64 `json:"inject_mean_rel_err"`
	// RepairBits sums the per-epoch repair cost (max over the epoch's
	// results — a fused batch heals its network once).
	RepairBits int64 `json:"repair_bits"`
	// MaxCrashed / MaxUnreachable are the worst single-epoch fault
	// impact the rerun saw.
	MaxCrashed     int   `json:"max_crashed"`
	MaxUnreachable int   `json:"max_unreachable"`
	RecoveryExact  bool  `json:"recovery_exact"`
	Sweeps         int64 `json:"sweeps"`
	// WallNS is host wall time for the rerun — informational only, never
	// part of the JSONL stream.
	WallNS int64 `json:"wall_ns"`
}

// Summary aggregates one scenario across its reruns; this is what the
// release gates evaluate and what benchdiff -scenario consumes.
type Summary struct {
	Name        string      `json:"name"`
	File        string      `json:"file,omitempty"`
	Seed        uint64      `json:"seed"`
	Reruns      int         `json:"reruns"`
	Queries     []string    `json:"queries"`
	Deployment  Deployment  `json:"deployment"`
	Phases      Phases      `json:"phases"`
	Faults      faults.Spec `json:"faults"`
	Robust      bool        `json:"robust,omitempty"`
	RetryBudget int         `json:"retry_budget,omitempty"`
	Gates       Gates       `json:"gates"`
	// DeclaredReruns is the scenario's own rerun count, which Reruns
	// differs from when the runner overrode it; Evaluate scales the
	// min_samples floor by their ratio. 0 (an older summary) scales nothing.
	DeclaredReruns int `json:"declared_reruns,omitempty"`

	Samples          int     `json:"samples"`
	Errors           int     `json:"errors"`
	MeanRelErr       float64 `json:"mean_rel_err"`
	InjectMeanRelErr float64 `json:"inject_mean_rel_err"`
	RepairBitsMean   float64 `json:"repair_bits_mean"`
	RepairBitsStd    float64 `json:"repair_bits_std"`
	// RepairBitsCV is the across-rerun coefficient of variation
	// (stddev/mean; 0 when the mean is 0, where it is undefined unless
	// every rerun repaired 0 bits — the gate checks the spread).
	RepairBitsCV float64 `json:"repair_bits_cv"`
	Converged    bool    `json:"converged"`

	RerunStats []RerunStats `json:"rerun_stats"`

	// MeanEpochWallNS is informational (non-deterministic): mean epoch
	// wall time, read back from the obs epoch-latency histogram.
	MeanEpochWallNS int64 `json:"mean_epoch_wall_ns,omitempty"`
}

// RunResult is one executed scenario: its JSONL records in emission
// order plus the gate-facing summary.
type RunResult struct {
	Summary Summary
	Records []any // *Sample and *EpochRecord, in stream order
}

// Options tunes a Runner.
type Options struct {
	// Reruns overrides every scenario's rerun count when positive.
	Reruns int
	// Workers bounds the engine pool. The default (0) pins one worker:
	// scenario artifacts promise byte-identical reruns, and a single
	// worker makes the obs counter stream (not just the results)
	// deterministic. Raise it only for exploratory runs.
	Workers int
}

// Runner executes scenarios through the real query engine — the same
// Submit(WithFusion) path the serving layer uses, with per-epoch run
// seeds, self-healing, the robust tier, and the obs instruments all
// live. Not safe for concurrent use: it owns the process-global obs sink
// while a scenario runs.
type Runner struct {
	opts Options
}

// NewRunner returns a runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	return &Runner{opts: opts}
}

// Reruns resolves the effective rerun count for a scenario.
func (r *Runner) Reruns(s *Scenario) int {
	if r.opts.Reruns > 0 {
		return r.opts.Reruns
	}
	return s.Reruns
}

// Run executes one scenario: Reruns() reruns of the full phase schedule,
// each epoch answering the whole query mix in one fused submission.
func (r *Runner) Run(ctx context.Context, s *Scenario) (*RunResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	queries := make([]engine.Query, len(s.Queries))
	for i, spec := range s.Queries {
		q, err := ParseQuery(spec)
		if err != nil {
			return nil, err
		}
		q.Robust = s.Robust
		if q.ProbeWidth == 0 {
			q.ProbeWidth = s.ProbeWidth
		}
		queries[i] = q
	}

	// The runner borrows the global obs sink for counter provenance and
	// restores whatever was installed before.
	prev := obs.Active()
	defer func() {
		if prev != nil {
			obs.EnableWith(prev)
		} else {
			obs.Disable()
		}
	}()

	eng := engine.New(engine.Options{Workers: r.opts.Workers})
	reruns := r.Reruns(s)
	res := &RunResult{Summary: Summary{
		Name:        s.Name,
		File:        s.File,
		Seed:        s.Seed,
		Reruns:      reruns,
		Queries:     s.Queries,
		Deployment:  s.Deployment,
		Phases:      s.Phases,
		Faults:      s.Faults,
		Robust:      s.Robust,
		RetryBudget: s.RetryBudget,
		Gates:       s.Gates,

		DeclaredReruns: s.Reruns,
	}}

	var latencySum float64
	var latencyCount int64
	for rerun := 0; rerun < reruns; rerun++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sink := obs.NewSink()
		obs.EnableWith(sink)
		stats, err := r.runRerun(ctx, eng, sink, s, queries, rerun, res)
		if err != nil {
			return nil, err
		}
		latencySum += sink.EpochLatency.Sum()
		latencyCount += sink.EpochLatency.Count()
		res.Summary.RerunStats = append(res.Summary.RerunStats, stats)
	}
	finalizeSummary(&res.Summary)
	if latencyCount > 0 {
		res.Summary.MeanEpochWallNS = int64(latencySum / float64(latencyCount) * 1e9)
	}
	return res, nil
}

// runRerun executes one rerun's full phase schedule.
func (r *Runner) runRerun(ctx context.Context, eng *engine.Engine, sink *obs.Sink, s *Scenario, queries []engine.Query, rerun int, res *RunResult) (RerunStats, error) {
	rseed := deriveSeed(s.Seed, uint64(rerun)+1)
	base := engine.Spec{
		Topology:    s.Deployment.Topology,
		N:           s.Deployment.N,
		Workload:    s.Deployment.Workload,
		MaxChildren: s.Deployment.MaxChildren,
		Seed:        rseed,
		Retry:       engine.Retry{Budget: s.RetryBudget},
	}
	stats := RerunStats{Rerun: rerun, RecoveryExact: true}
	var relSum, injectRelSum float64
	var relN, injectRelN int
	start := time.Now()
	var last counterState
	for epoch := 0; epoch < s.Phases.Total(); epoch++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		phase := s.Phases.phaseOf(epoch)
		spec := base
		if phase == PhaseInject {
			spec.Faults = s.Faults
		}
		jobs := make([]engine.Job, len(queries))
		for qi, q := range queries {
			jobs[qi] = engine.Job{
				ID:      fmt.Sprintf("%s/r%d/e%d/q%d", s.Name, rerun, epoch, qi),
				Spec:    spec,
				Query:   q,
				RunSeed: deriveSeed(rseed, uint64(epoch)+1),
			}
		}
		epochStart := time.Now()
		results := eng.Submit(ctx, jobs, engine.WithFusion())
		sink.Epochs.Add(1)
		sink.EpochLatency.Observe(time.Since(epochStart).Seconds())

		var epochRepair int64
		var epochCrashed, epochUnreachable int
		for qi, qr := range results {
			sample := sampleFrom(s, rerun, epoch, phase, s.Queries[qi], qr)
			res.Records = append(res.Records, sample)
			stats.Samples++
			if sample.Err != "" {
				stats.Errors++
				continue
			}
			if sample.TruthKnown {
				relSum += sample.RelErr
				relN++
				if phase == PhaseInject {
					injectRelSum += sample.RelErr
					injectRelN++
				}
			}
			if phase == PhaseRecovery && !(sample.TruthKnown && sample.Exact) {
				stats.RecoveryExact = false
			}
			if sample.RepairBits > epochRepair {
				epochRepair = sample.RepairBits
			}
			if sample.Crashed > epochCrashed {
				epochCrashed = sample.Crashed
			}
			if sample.Unreachable > epochUnreachable {
				epochUnreachable = sample.Unreachable
			}
		}
		stats.RepairBits += epochRepair
		if epochCrashed > stats.MaxCrashed {
			stats.MaxCrashed = epochCrashed
		}
		if epochUnreachable > stats.MaxUnreachable {
			stats.MaxUnreachable = epochUnreachable
		}
		cur := readCounters(sink)
		res.Records = append(res.Records, &EpochRecord{
			Kind:          "epoch",
			Scenario:      s.Name,
			Rerun:         rerun,
			Epoch:         epoch,
			Phase:         phase,
			Sweeps:        cur.sweeps - last.sweeps,
			Broadcasts:    cur.broadcasts - last.broadcasts,
			Probes:        cur.probes - last.probes,
			SoloQueries:   cur.solo - last.solo,
			FusionBatches: cur.batches - last.batches,
			FusionMembers: cur.members - last.members,
		})
		last = cur
	}
	if relN > 0 {
		stats.MeanRelErr = relSum / float64(relN)
	}
	if injectRelN > 0 {
		stats.InjectMeanRelErr = injectRelSum / float64(injectRelN)
	}
	stats.Sweeps = last.sweeps
	stats.WallNS = time.Since(start).Nanoseconds()
	return stats, nil
}

// counterState is a point-in-time read of the obs instruments the epoch
// records difference.
type counterState struct {
	sweeps, broadcasts, probes, solo, batches, members int64
}

func readCounters(sink *obs.Sink) counterState {
	return counterState{
		sweeps:     sink.Sweeps.Value(),
		broadcasts: sink.Broadcasts.Value(),
		probes:     sink.Probes.Value(),
		solo:       sink.Queries.Value(),
		batches:    sink.FusionBatchSize.Count(),
		members:    int64(sink.FusionBatchSize.Sum()),
	}
}

// sampleFrom flattens one engine result into a JSONL sample.
func sampleFrom(s *Scenario, rerun, epoch int, phase, query string, qr engine.Result) *Sample {
	sample := &Sample{
		Kind:     "sample",
		Scenario: s.Name,
		Rerun:    rerun,
		Epoch:    epoch,
		Phase:    phase,
		Query:    query,

		Value:      qr.Value,
		Values:     qr.Values,
		Truth:      qr.Truth,
		TruthKnown: qr.TruthKnown,
		Exact:      qr.Exact,
		RelErr:     relErr(qr),

		BitsPerNode:  qr.BitsPerNode,
		TotalBits:    qr.TotalBits,
		RepairBits:   qr.RepairBits,
		Crashed:      qr.Crashed,
		Unreachable:  qr.Unreachable,
		SharedSweeps: qr.SharedSweeps,
		Fused:        qr.Fused,

		Retries:      qr.Retries,
		Degraded:     qr.Degraded,
		SurvivorFrac: qr.SurvivorFrac,

		Robust:         qr.Robust,
		Suspected:      qr.Suspected,
		Quarantined:    qr.Quarantined,
		IntegrityBound: qr.IntegrityBound,

		Err: qr.Error,
	}
	return sample
}

// relErr computes the sample's relative error against the survivor
// ground truth: elementwise-averaged for vector answers, 0 when the
// truth is unknown.
func relErr(qr engine.Result) float64 {
	if !qr.TruthKnown {
		return 0
	}
	one := func(v, t float64) float64 {
		d := math.Abs(t)
		if d < 1 {
			d = 1
		}
		return math.Abs(v-t) / d
	}
	if len(qr.Values) > 0 && len(qr.Truths) == len(qr.Values) {
		var sum float64
		for i := range qr.Values {
			sum += one(qr.Values[i], qr.Truths[i])
		}
		return sum / float64(len(qr.Values))
	}
	return one(qr.Value, qr.Truth)
}

// finalizeSummary folds the rerun stats into the scenario aggregates.
func finalizeSummary(sum *Summary) {
	n := len(sum.RerunStats)
	if n == 0 {
		return
	}
	sum.Converged = true
	var relSum, injectSum float64
	repair := make([]float64, 0, n)
	for _, rs := range sum.RerunStats {
		sum.Samples += rs.Samples
		sum.Errors += rs.Errors
		relSum += rs.MeanRelErr
		injectSum += rs.InjectMeanRelErr
		repair = append(repair, float64(rs.RepairBits))
		if rs.Errors > 0 || !rs.RecoveryExact {
			sum.Converged = false
		}
	}
	sum.MeanRelErr = relSum / float64(n)
	sum.InjectMeanRelErr = injectSum / float64(n)
	sum.RepairBitsMean, sum.RepairBitsStd = meanStd(repair)
	if sum.RepairBitsMean > 0 {
		sum.RepairBitsCV = sum.RepairBitsStd / sum.RepairBitsMean
	}
}

// meanStd returns the mean and population standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varSum float64
	for _, x := range xs {
		d := x - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / float64(len(xs)))
}

// deriveSeed mixes (seed, salt) into a nonzero stream seed — SplitMix64's
// finalizer, matching the stack's other seed forks.
func deriveSeed(seed, salt uint64) uint64 {
	x := seed ^ (salt * 0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	if x == 0 {
		x = 1
	}
	return x
}
