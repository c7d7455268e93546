package engine

import "context"

// SubmitOption tunes one Submit call without reconfiguring the engine; the
// zero set inherits the engine's Options.
type SubmitOption func(*submitConfig)

type submitConfig struct {
	fuse bool
}

// WithFusion enables shared-sweep query fusion for this submission:
// fusable jobs on one deployment, run seed and overlay form one unit, a
// fusion group, answered on one fork as one batch whose probe thresholds
// share CountVec sweeps (see fusion.go). Off by default, every job is a
// unit of one: a fused member reports the batch's shared communication
// cost, which changes what Result meters mean, so callers opt in.
func WithFusion() SubmitOption {
	return func(c *submitConfig) { c.fuse = true }
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
// run seed, overlay pointer and resolved query, its WHERE predicate compared
// by value) is its twin and gets that job's Result under its own ID — what
// it would get alone, but for WallNS. Twins share the Result's slices and
// predicate, so results are read-only. A fusion batch
// counts its members' twins. queries_total counts executions, not answers.
//
// Options apply to this call only: WithFusion turns the submission's
// fusable jobs into shared-sweep batches. Each query's deadline is the
// engine's Options.Timeout, and its probe width its own Query.ProbeWidth.
func (e *Engine) Submit(ctx context.Context, jobs []Job, opts ...SubmitOption) []Result {
	var cfg submitConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return e.runAll(ctx, jobs, cfg.fuse)
}
