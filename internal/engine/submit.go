package engine

import (
	"context"
	"slices"
	"time"
)

// SubmitOption tunes one Submit call without reconfiguring the engine; the
// zero set inherits the engine's Options.
type SubmitOption func(*submitConfig)

type submitConfig struct {
	fuse       bool
	timeout    time.Duration
	timeoutSet bool
	probeWidth int
}

// WithFusion enables shared-sweep query fusion for this submission:
// concurrent fusable jobs against the same deployment, run seed, and
// overlay execute as one batch on one forked network, their probe
// thresholds merged into shared CountVec sweeps (see fusion.go). Off by
// default — fused members report the batch's shared communication cost,
// which changes what Result meters mean, so callers opt in.
func WithFusion() SubmitOption {
	return func(c *submitConfig) { c.fuse = true }
}

// WithDeadline sets the per-query deadline for this submission (0 removes
// an engine-level deadline). A query that overruns is reported failed; a
// fused batch that overruns detaches its unresolved members to solo runs
// with their own full deadline.
func WithDeadline(d time.Duration) SubmitOption {
	return func(c *submitConfig) { c.timeout = d; c.timeoutSet = true }
}

// WithProbeWidth sets the k-ary probe batch width for every job in the
// submission whose query leaves ProbeWidth unset (explicit per-query
// widths win).
func WithProbeWidth(w int) SubmitOption {
	return func(c *submitConfig) { c.probeWidth = w }
}

// Submit is the engine's single entrypoint: it executes jobs on the worker
// pool and returns results strictly in job order — results[i] always
// answers jobs[i], regardless of worker scheduling, fusion batching, or a
// mid-batch cancellation (jobs that never started are marked with the
// context error at their own indices). Individual failures (bad spec,
// protocol error, deadline) are reported in the corresponding Result,
// never as an error for the whole submission.
//
// Equal jobs run once: a job equal to an earlier one (same normalized spec,
// run seed, overlay pointer and resolved query) is its twin and gets that
// job's Result under its own ID — what it would get alone, but for WallNS.
// Twins share the Result's slices, so results are read-only. A fusion batch
// counts its members' twins. queries_total counts executions, not answers.
//
// Options apply to this call only: WithFusion turns the submission's
// fusable jobs into shared-sweep batches, WithDeadline bounds each query,
// WithProbeWidth defaults the jobs' probe widths.
func (e *Engine) Submit(ctx context.Context, jobs []Job, opts ...SubmitOption) []Result {
	var cfg submitConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	run := e
	if cfg.timeoutSet {
		derived := *e
		derived.timeout = cfg.timeout
		run = &derived
	}
	if cfg.probeWidth != 0 {
		widened := slices.Clone(jobs)
		for i := range widened {
			if widened[i].Query.ProbeWidth == 0 {
				widened[i].Query.ProbeWidth = cfg.probeWidth
			}
		}
		jobs = widened
	}
	return run.runAll(ctx, jobs, cfg.fuse)
}
