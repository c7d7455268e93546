// Package serve is the continuous-query layer: a long-lived Service wraps
// the engine so dashboard-style clients subscribe once and receive a
// stream of per-epoch answers, instead of re-issuing one-shot runs.
//
// Three mechanisms make serving cheap in the paper's measure (max over
// nodes of bits sent+received):
//
//   - Group-commit fusion window. Ad-hoc queries are not executed on
//     arrival: they are held for Options.FuseWindow (a few ms) so
//     concurrent arrivals — and any epoch tick that lands inside the
//     window — flush as ONE fusion batch on one shared probe plane
//     (engine.WithFusion). The window bounds added latency; the context
//     AdvanceEpoch is given bounds a batch's: once it is done, the batch
//     stops at its next sweep and its members fail with its error.
//
//   - Epoch scheduler. AdvanceEpoch (or the Options.EpochInterval ticker)
//     evolves the deployment's sensed values through the epoch drift
//     model (UpdateFunc), injects them into the engine via a shared
//     Job.Overlay, and re-executes every subscription as one fused batch:
//     K subscribers per epoch cost ~one query's tree traffic.
//
//   - Delta-narrowing. A re-issued selection query seeds its k-ary search
//     from an extrapolation of its own answer history (last answer + last
//     move, ± max(32, |last move|)), so per-epoch sweeps scale with how
//     far the statistic moved, not with the domain size. Seeds bias the
//     probe schedule only — answers stay byte-identical to from-scratch
//     search, and a miss costs at most one extra sweep (Result.SeedHit
//     reports which happened).
package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/obs"
	"sensoragg/internal/query"
	"sensoragg/internal/topology"
)

// DefaultFuseWindow is the group-commit window: long enough to collect a
// burst of concurrent arrivals into one fusion batch, short enough to be
// invisible next to human-facing latency budgets.
const DefaultFuseWindow = 2 * time.Millisecond

// SeedMarginFloor is the minimum half-width of a delta-narrowing window.
// Margins below the probe spacing of a near-final sweep save nothing, and
// a too-tight window turns estimator jitter into seed misses.
const SeedMarginFloor = 32

// DefaultBreakerThreshold is how many consecutive failed epochs (no
// subscription produced a usable answer) trip the circuit breaker into
// last-known-good serving.
const DefaultBreakerThreshold = 3

// DefaultMaxStale bounds how many epochs old a last-known-good answer
// may be and still be served in place of a failed fresh one.
const DefaultMaxStale = 8

// UpdateFunc produces node u's fresh reading for an epoch, given its
// previous reading — the sensor drift model.
type UpdateFunc func(epoch int, node topology.NodeID, prev uint64) uint64

// Options configures a Service.
type Options struct {
	// Spec is the deployment every subscription and ad-hoc query runs
	// against (normalized once). The serve layer assumes the engine's
	// one-reading-per-node deployments.
	Spec engine.Spec
	// Engine executes the batches; nil builds a default engine.
	Engine *engine.Engine
	// FuseWindow is the group-commit window for ad-hoc arrivals; 0 means
	// DefaultFuseWindow, negative flushes every arrival immediately
	// (windowless, for tests).
	FuseWindow time.Duration
	// Update is the sensor drift model applied at every epoch advance;
	// nil keeps values static.
	Update UpdateFunc
	// EpochInterval, when positive, advances epochs on a background
	// ticker; otherwise the caller drives AdvanceEpoch.
	EpochInterval time.Duration
	// Buffer is each subscription channel's capacity (0 → 4). A
	// subscriber that falls behind loses the oldest undelivered epochs —
	// delivery never blocks the epoch stream — and the loss is counted on
	// Subscription.Dropped.
	Buffer int
	// Robust, when set, executes every subscription and ad-hoc query in
	// the engine's Byzantine-robust mode (engine.Query.Robust): answers
	// carry integrity accounting and adversarial fault plans are
	// localized and quarantined before answering. Statements the robust
	// tier cannot answer (engine.Query.RobustCapable) keep the plain path.
	Robust bool
	// BreakerThreshold is the number of consecutive failed epochs — no
	// subscription produced a usable (non-failed, non-degraded) answer —
	// after which the circuit breaker opens and the service serves
	// last-known-good answers instead of executing full batches. While
	// open, each epoch advance issues one half-open probe (the first
	// subscription's query, solo); a usable probe closes the breaker and
	// the full batch runs in the same epoch. 0 means
	// DefaultBreakerThreshold; negative disables the breaker.
	BreakerThreshold int
	// MaxStale bounds how many epochs old a last-known-good answer may be
	// and still be served when a fresh epoch fails or degrades
	// (Result.StaleEpochs carries the age). 0 means DefaultMaxStale;
	// negative removes the bound.
	MaxStale int
	// ObsAddr, when non-empty, enables the global observability sink
	// (obs.Enable, unless one is already active) and serves the
	// introspection endpoint — /metrics, /healthz, /debug/trace,
	// /debug/pprof — on this address for the service's lifetime. Use
	// ":0" to bind an ephemeral port (read it back from
	// Service.ObsAddr). Empty keeps observability untouched. The
	// embedding binary must blank-import sensoragg/internal/obs/obshttp;
	// New fails otherwise.
	ObsAddr string
}

// Result is one delivered answer: the engine result plus the serving
// context (which epoch's state it answered, and for which subscription).
type Result struct {
	Epoch int `json:"epoch"`
	SubID int `json:"sub_id,omitempty"`
	// StaleEpochs is how many epochs old a served last-known-good answer
	// is (0 on fresh answers); LKG marks that the embedded result is a
	// cached substitute for a failed or degraded fresh epoch.
	StaleEpochs int  `json:"stale_epochs,omitempty"`
	LKG         bool `json:"lkg,omitempty"`
	engine.Result
}

// Service is the continuous-query service. All methods are safe for
// concurrent use.
type Service struct {
	spec   engine.Spec
	eng    *engine.Engine
	window time.Duration
	update UpdateFunc
	buffer int
	maxX   uint64
	robust bool

	threshold int // consecutive failed epochs that open the breaker; <=0 disables
	maxStale  int // LKG staleness bound in epochs; <0 removes the bound

	mu          sync.Mutex
	closed      bool
	breaker     int // breakerClosed / breakerHalfOpen / breakerOpen
	consecFails int // failed epochs since the last usable one
	epoch       int
	values      []uint64        // current epoch's multiset, node order
	overlay     *engine.Overlay // shared by every job of the current epoch; nil before the first advance
	subs        []*Subscription // ordered by ID: deterministic batch layout
	nextID      int
	pending     []pendingQuery
	adhocID     int
	timer       *time.Timer

	tickStop chan struct{}
	tickDone chan struct{}

	obsSrv obs.EndpointServer // introspection endpoint; nil unless Options.ObsAddr was set
}

type pendingQuery struct {
	job  engine.Job
	resp chan Result
}

// New builds the service and captures the deployment's initial sensed
// values (epoch 0) from the engine's session cache.
func New(opts Options) (*Service, error) {
	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	spec := opts.Spec.Normalize()
	nw, err := eng.Session().Instantiate(spec, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: instantiating %s: %w", spec, err)
	}
	values := nw.AllItems()
	maxX := nw.MaxX
	nw.Release()

	window := opts.FuseWindow
	if window == 0 {
		window = DefaultFuseWindow
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = 4
	}
	threshold := opts.BreakerThreshold
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	maxStale := opts.MaxStale
	if maxStale == 0 {
		maxStale = DefaultMaxStale
	}
	s := &Service{
		spec:      spec,
		eng:       eng,
		window:    window,
		update:    opts.Update,
		buffer:    buffer,
		maxX:      maxX,
		robust:    opts.Robust,
		threshold: threshold,
		maxStale:  maxStale,
		values:    values,
	}
	if opts.ObsAddr != "" {
		if err := s.startObs(opts.ObsAddr); err != nil {
			return nil, fmt.Errorf("serve: obs endpoint: %w", err)
		}
	}
	if opts.EpochInterval > 0 {
		s.tickStop = make(chan struct{})
		s.tickDone = make(chan struct{})
		go s.tickLoop(opts.EpochInterval)
	}
	return s, nil
}

func (s *Service) tickLoop(interval time.Duration) {
	defer close(s.tickDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.AdvanceEpoch(context.Background())
		case <-s.tickStop:
			return
		}
	}
}

// Epoch returns the current epoch number (0 before the first advance).
func (s *Service) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Subscription is one client's standing query. Results arrive on
// Results() once per epoch advance until Unsubscribe (or service Close)
// closes the channel.
type Subscription struct {
	// ID tags the subscription's results (Result.SubID).
	ID int

	svc  *Service
	stmt string
	q    engine.Query
	ch   chan Result

	// Delta-narrowing state, guarded by svc.mu: the last answers, the
	// last epoch-over-epoch moves, and how many consecutive successful
	// epochs seeded them. nranks == 0 disables seeding (non-selection
	// statements).
	nranks  int
	prev    []uint64
	move    []int64
	seen    int
	dropped int64

	// Last-known-good cache, guarded by svc.mu: the most recent usable
	// answer and the epoch that produced it. Served with a staleness
	// stamp when a fresh epoch fails or degrades (Options.MaxStale).
	lkg      engine.Result
	lkgEpoch int
	hasLKG   bool

	// detached, guarded by svc.mu, is set once Unsubscribe or Close has
	// closed ch: an epoch already running delivers nothing more to it.
	detached bool
}

// Results is the channel of per-epoch answers.
func (sub *Subscription) Results() <-chan Result { return sub.ch }

// Statement returns the subscribed statement.
func (sub *Subscription) Statement() string { return sub.stmt }

// Dropped reports how many results were discarded because the subscriber
// fell more than the channel buffer behind the epoch stream.
func (sub *Subscription) Dropped() int64 {
	sub.svc.mu.Lock()
	defer sub.svc.mu.Unlock()
	return sub.dropped
}

// Unsubscribe detaches the subscription and closes its channel. Safe to
// call more than once.
func (sub *Subscription) Unsubscribe() {
	s := sub.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.detachLocked()
}

func (sub *Subscription) detachLocked() {
	if sub.detached {
		return
	}
	s := sub.svc
	s.subs = slices.DeleteFunc(s.subs, func(have *Subscription) bool { return have == sub })
	sub.detached = true
	close(sub.ch)
}

// Subscribe registers a standing statement. Every subsequent epoch
// advance re-executes it (fused with the other subscriptions and any
// ad-hoc arrivals in the window) and delivers a Result on the returned
// subscription's channel. Cancelling ctx unsubscribes.
func (s *Service) Subscribe(ctx context.Context, statement string) (*Subscription, error) {
	q, nranks, err := QueryFor(statement)
	if err != nil {
		return nil, err
	}
	q = s.applyRobust(q)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: service closed")
	}
	s.nextID++
	sub := &Subscription{
		ID:     s.nextID,
		svc:    s,
		stmt:   statement,
		q:      q,
		ch:     make(chan Result, s.buffer),
		nranks: nranks,
		prev:   make([]uint64, nranks),
		move:   make([]int64, nranks),
	}
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			sub.Unsubscribe()
		}()
	}
	return sub, nil
}

// QueryFor maps a sensorql statement onto the engine query the serving
// layer executes, plus the number of seeded ranks (0 = not seedable). Every
// aggregate maps to the engine kind of its name, except that a single
// quantile maps to KindQuantiles, so φ resolves against the
// protocol-counted N, and distinct maps to KindApxDistinct under `USING
// sketch=1`. A WHERE clause becomes Query.Where. USING keys map onto
// Query fields, and each aggregate accepts only its own:
//
//	median, quantile, quantiles  probewidth=K   ProbeWidth, an integer in [1, core.MaxProbeWidth]
//	apxmedian                    eps=E          Eps, in [0.01, 1)
//	apxmedian2                   eps=E, beta=B  Eps; Beta, in [1/1024, 1)
//	distinct                     sketch=0|1, m=M  the sketch, of 2^round(log2 M) registers (2^1..2^16)
//
// Any other key, or a value out of range, is an error naming the accepted keys.
func QueryFor(statement string) (engine.Query, int, error) {
	pq, err := query.Parse(statement)
	if err != nil {
		return engine.Query{}, 0, fmt.Errorf("serve: %w", err)
	}
	q := engine.Query{Kind: string(pq.Agg), Where: pq.Where}
	nranks := 0
	var keys []string
	switch pq.Agg {
	case query.AggMedian:
		nranks, keys = 1, []string{"probewidth"}
	case query.AggQuantile:
		q.Kind, q.Phis = engine.KindQuantiles, []float64{pq.Phi}
		nranks, keys = 1, []string{"probewidth"}
	case query.AggQuantiles:
		q.Phis = slices.Clone(pq.Phis)
		nranks, keys = len(pq.Phis), []string{"probewidth"}
	case query.AggApxMedian:
		keys = []string{"eps"}
	case query.AggApxMedian2:
		keys = []string{"eps", "beta"}
	case query.AggDistinct:
		keys = []string{"sketch", "m"}
	}
	given := make([]string, 0, len(pq.Options))
	for key := range pq.Options {
		given = append(given, key)
	}
	slices.Sort(given)
	for _, key := range given {
		if !slices.Contains(keys, key) {
			accepted := "none"
			if len(keys) > 0 {
				accepted = strings.Join(keys, ", ")
			}
			return engine.Query{}, 0, fmt.Errorf("serve: %s takes no USING key %q (accepted: %s)", pq.Agg, key, accepted)
		}
		if err := using(&q, key, pq.Options); err != nil {
			return engine.Query{}, 0, fmt.Errorf("serve: %s: %w (accepted: %s)", pq.Agg, err, strings.Join(keys, ", "))
		}
	}
	return q, nranks, nil
}

// using range-checks USING key's value opts[key] and sets the Query field
// it maps onto.
func using(q *engine.Query, key string, opts map[string]float64) error {
	v := opts[key]
	switch key {
	case "probewidth":
		if v != math.Trunc(v) || v < 1 || v > core.MaxProbeWidth {
			return fmt.Errorf("probewidth %g must be an integer in [1, %d]", v, core.MaxProbeWidth)
		}
		q.ProbeWidth = int(v)
	case "eps":
		if v < 0.01 || v >= 1 {
			return fmt.Errorf("eps %g must be in [0.01, 1)", v)
		}
		q.Eps = v
	case "beta":
		if v < 1.0/1024 || v >= 1 {
			return fmt.Errorf("beta %g must be in [1/1024, 1)", v)
		}
		q.Beta = v
	case "sketch":
		switch v {
		case 0:
		case 1:
			q.Kind = engine.KindApxDistinct
		default:
			return fmt.Errorf("sketch %g must be 0 (exact) or 1", v)
		}
	case "m":
		if opts["sketch"] != 1 {
			return fmt.Errorf("m needs sketch=1")
		}
		p := math.Round(math.Log2(v))
		if !(p >= 1 && p <= 16) {
			return fmt.Errorf("sketch m=%g must round to 2^1..2^16 registers", v)
		}
		q.SketchP = int(p)
	}
	return nil
}

// applyRobust stamps Options.Robust onto a query the robust tier can
// answer; the rest stay plain rather than fail for a service-level default.
func (s *Service) applyRobust(q engine.Query) engine.Query {
	if s.robust && q.RobustCapable() {
		q.Robust = true
	}
	return q
}

// seedsLocked builds the subscription's delta-narrowing windows: an
// extrapolated center (last answer + last move) with margin
// max(SeedMarginFloor, |last move|). nil until two successful epochs have
// produced a move estimate — the full-range fallback.
func (sub *Subscription) seedsLocked() []core.SeedWindow {
	if sub.nranks == 0 || sub.seen < 2 {
		return nil
	}
	out := make([]core.SeedWindow, sub.nranks)
	for i := range out {
		margin := sub.move[i]
		if margin < 0 {
			margin = -margin
		}
		if margin < SeedMarginFloor {
			margin = SeedMarginFloor
		}
		center := int64(sub.prev[i]) + sub.move[i]
		if center < 0 {
			center = 0
		}
		lo := center - margin
		if lo < 0 {
			lo = 0
		}
		out[i] = core.SeedWindow{Lo: uint64(lo), Hi: uint64(center + margin)}
	}
	return out
}

// observeLocked folds an epoch's answer into the seeding state. A failed
// epoch resets it: the next answer rebuilds the history from scratch
// rather than extrapolating across a gap.
func (sub *Subscription) observeLocked(r engine.Result) {
	if sub.nranks == 0 {
		return
	}
	if r.Failed() {
		sub.seen = 0
		return
	}
	vals := r.Values
	if len(vals) == 0 {
		vals = []float64{r.Value}
	}
	if len(vals) != sub.nranks {
		sub.seen = 0
		return
	}
	for i, v := range vals {
		u := uint64(v)
		if sub.seen > 0 {
			sub.move[i] = int64(u) - int64(sub.prev[i])
		}
		sub.prev[i] = u
	}
	sub.seen++
}

// AdvanceEpoch evolves the deployment state one epoch through the drift
// model and re-executes every subscription against it as one fused batch
// — merging any ad-hoc queries already holding in the fusion window into
// the same batch — then delivers the results. It returns the
// subscriptions' results in subscription order (ad-hoc results go to
// their callers). Concurrent AdvanceEpoch calls serialize on the state
// evolution but execute their batches independently.
//
// Resilience: a subscription whose fresh answer failed or degraded is
// served its last-known-good answer instead (stamped Result.LKG with
// StaleEpochs), as long as it is within Options.MaxStale. After
// Options.BreakerThreshold consecutive epochs with no usable answer the
// circuit breaker opens: subsequent epochs skip the full batch, serve
// last-known-good directly, and issue one half-open probe whose success
// closes the breaker and re-runs the full batch in the same epoch.
func (s *Service) AdvanceEpoch(ctx context.Context) []Result {
	start := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.epoch++
	e := s.epoch
	if s.update != nil {
		for i := range s.values {
			next := s.update(e, topology.NodeID(i), s.values[i])
			if next > s.maxX {
				next = s.maxX
			}
			s.values[i] = next
		}
	}
	ov := &engine.Overlay{Epoch: e, Values: slices.Clone(s.values)}
	s.overlay = ov
	subs := slices.Clone(s.subs)

	if s.breaker == breakerOpen && len(subs) > 0 {
		s.setBreakerLocked(breakerHalfOpen)
		probe := engine.Job{
			ID:      fmt.Sprintf("probe-%d@%d", subs[0].ID, e),
			Spec:    s.spec,
			Query:   subs[0].q,
			Overlay: ov,
		}
		s.mu.Unlock()
		pr := s.eng.Submit(ctx, []engine.Job{probe}, engine.WithFusion())
		s.mu.Lock()
		if !usable(pr[0]) {
			// The deployment is still broken: stay open and serve every
			// subscription its cached answer without touching the engine.
			s.setBreakerLocked(breakerOpen)
			out, drops := s.serveLKGLocked(e, subs)
			s.mu.Unlock()
			if sk := obs.Active(); sk != nil {
				s.obsEpoch(sk, e, len(subs), 0, 0, 0, drops, time.Since(start))
			}
			return out
		}
		// Healed: close the breaker and run the full batch this epoch.
		s.setBreakerLocked(breakerClosed)
		s.consecFails = 0
	}

	jobs := make([]engine.Job, 0, len(subs))
	id := make([]byte, 0, 32) // "sub-<id>@<epoch>", one string allocation per job
	for _, sub := range subs {
		q := sub.q
		q.SeedWindows = sub.seedsLocked()
		id = strconv.AppendInt(append(id[:0], "sub-"...), int64(sub.ID), 10)
		id = strconv.AppendInt(append(id, '@'), int64(e), 10)
		jobs = append(jobs, engine.Job{
			ID:      string(id),
			Spec:    s.spec,
			Query:   q,
			Overlay: ov,
		})
	}
	pend := s.takePendingLocked()
	for _, p := range pend {
		job := p.job
		job.Overlay = ov
		jobs = append(jobs, job)
	}
	s.mu.Unlock()

	results := s.eng.Submit(ctx, jobs, engine.WithFusion())

	out := make([]Result, len(subs))
	var seedAttempts, seedHits, drops int64
	usableCount := 0
	sk := obs.Active()
	s.mu.Lock()
	for i, sub := range subs {
		fresh := results[i]
		if len(jobs[i].Query.SeedWindows) > 0 {
			seedAttempts++
			if fresh.SeedHit {
				seedHits++
			}
		}
		r := Result{Epoch: e, SubID: sub.ID, Result: fresh}
		if usable(fresh) {
			usableCount++
			sub.observeLocked(fresh)
			sub.lkg = fresh
			sub.lkgEpoch = e
			sub.hasLKG = true
		} else {
			// Don't extrapolate delta-narrowing seeds across a failed or
			// degraded epoch, and don't let a degraded answer poison the
			// last-known-good cache.
			sub.seen = 0
			if lkg, ok := s.lkgLocked(e, sub); ok {
				r = lkg
				if sk != nil {
					sk.LKGServed.Add(1)
				}
			}
		}
		out[i] = r
		if sub.detached {
			continue // unsubscribed while the batch ran
		}
		s.pushLocked(sub, r, &drops)
	}
	s.noteEpochLocked(len(subs), usableCount)
	s.mu.Unlock()
	if sk != nil {
		s.obsEpoch(sk, e, len(subs), len(pend), seedAttempts, seedHits, drops, time.Since(start))
	}
	for i, p := range pend {
		p.resp <- Result{Epoch: e, Result: results[len(subs)+i]}
	}
	return out
}

// Query answers one ad-hoc statement against the current epoch's state.
// The job is held in the group-commit window (Options.FuseWindow) so
// concurrent callers — and an epoch advance landing inside the window —
// fuse into one batch; the window is the latency price of the shared
// probe plane. Cancelling ctx abandons the wait (the query may still
// execute).
func (s *Service) Query(ctx context.Context, statement string) (Result, error) {
	q, _, err := QueryFor(statement)
	if err != nil {
		return Result{}, err
	}
	q = s.applyRobust(q)
	resp := make(chan Result, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{}, fmt.Errorf("serve: service closed")
	}
	s.adhocID++
	job := engine.Job{
		ID:      fmt.Sprintf("adhoc-%d", s.adhocID),
		Spec:    s.spec,
		Query:   q,
		Overlay: s.overlay,
	}
	s.pending = append(s.pending, pendingQuery{job: job, resp: resp})
	if s.timer == nil && s.window > 0 {
		s.timer = time.AfterFunc(s.window, s.flushWindow)
	}
	windowless := s.window < 0
	s.mu.Unlock()

	if windowless {
		s.flushWindow()
	}
	select {
	case r := <-resp:
		if r.Failed() {
			return r, fmt.Errorf("serve: %s", r.Error)
		}
		return r, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// takePendingLocked claims the window's held queries and disarms the
// timer. Callers flush the returned queries themselves.
func (s *Service) takePendingLocked() []pendingQuery {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	pend := s.pending
	s.pending = nil
	return pend
}

// flushWindow executes the window's held queries as one fused batch
// against the current epoch state.
func (s *Service) flushWindow() {
	s.mu.Lock()
	pend := s.takePendingLocked()
	s.mu.Unlock()
	if len(pend) == 0 {
		return
	}
	if sk := obs.Active(); sk != nil {
		sk.WindowFill.Observe(float64(len(pend)))
		sk.Tracer.Emit("window.flush", 0, obs.KV{K: "queries", V: int64(len(pend))})
	}
	jobs := make([]engine.Job, len(pend))
	for i, p := range pend {
		jobs[i] = p.job
	}
	results := s.eng.Submit(context.Background(), jobs, engine.WithFusion())
	for i, p := range pend {
		e := 0
		if jobs[i].Overlay != nil {
			e = jobs[i].Overlay.Epoch
		}
		p.resp <- Result{Epoch: e, Result: results[i]}
	}
}

// Close stops the epoch ticker, fails queries still holding in the
// window, and closes every subscription channel. The service rejects all
// subsequent calls.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pend := s.takePendingLocked()
	subs := slices.Clone(s.subs)
	s.subs = nil
	for _, sub := range subs {
		sub.detached = true
	}
	tickStop, tickDone := s.tickStop, s.tickDone
	s.mu.Unlock()

	if tickStop != nil {
		close(tickStop)
		<-tickDone
	}
	for _, p := range pend {
		r := Result{Result: engine.Result{Error: "serve: service closed"}}
		p.resp <- r
	}
	for _, sub := range subs {
		close(sub.ch)
	}
	if s.obsSrv != nil {
		_ = s.obsSrv.Close()
	}
}
