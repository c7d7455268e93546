package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/serve"
	"sensoragg/internal/topology"
	wl "sensoragg/internal/workload"
)

// member is one standing statement (serve workloads) or one job (engine
// workloads) of a workload's op, plus the benchmark's own expectation of its
// answer. want is nil where the benchmark cannot know the population the
// answer ranges over (fault plans pick the survivors inside the engine);
// those members are judged by the engine's own truth comparison.
type member struct {
	stmt  string
	query engine.Query
	want  func(o *oracle) []float64
}

// workload is one of the benchmark's four traffic mixes. The names are
// fixed: issues and reviews cite them.
type workload struct {
	name, why string

	topology string
	n        int
	values   wl.Kind
	faults   faults.Spec
	retry    engine.Retry

	// serve workloads: an op is AdvanceEpoch plus draining every
	// subscription channel; members cycle over `subscribers` subscriptions
	// and every node's reading drifts by up to ±drift per epoch.
	serve       bool
	subscribers int
	drift       uint64
	robust      bool

	// engine workloads: an op is one Submit of the members' jobs, fused or
	// not, with a fresh RunSeed per op when the fault plan should differ
	// from op to op.
	fuse         bool
	freshRunSeed bool

	members []member

	// fixedOps is the op-count prefix of the timed phase over which the
	// simulated counters are averaged, so they repeat bit for bit however
	// many ops the host fits into the run; warmup ops run untimed first.
	// The oracle re-checks every oracleEvery-th op (0: the first op only).
	fixedOps, warmup, oracleEvery int
}

const (
	stmtMedian    = "SELECT median(value)"
	stmtQuantiles = "SELECT quantiles(value, 0.25, 0.5, 0.75, 0.9, 0.99)"
	stmtCount     = "SELECT count(value)"
	stmtSum       = "SELECT sum(value)"
	stmtAvg       = "SELECT avg(value)"
)

var fleetPhis = []float64{0.25, 0.5, 0.75, 0.9, 0.99}
var bignetPhis = []float64{0.1, 0.5, 0.9, 0.99}

var workloads = []*workload{
	{
		name:     "fleet",
		why:      "192 mixed subscribers on one fused plane over a small drifting grid: per-batch and per-subscriber overhead of serve, engine fusion and the core stepper",
		topology: "grid", n: 4096, values: wl.Uniform,
		serve: true, subscribers: 192, drift: 200,
		members: []member{
			{stmt: stmtMedian, want: wantMedian},
			{stmt: stmtQuantiles, want: wantQuantiles(fleetPhis)},
			{stmt: stmtCount, want: wantCount},
			{stmt: stmtAvg, want: wantAvg},
		},
		fixedOps: 2000, warmup: 50, oracleEvery: 64,
	},
	{
		name:     "bignet",
		why:      "six unfused jobs on a 65536-node grid: kernel-bound solo path, worker pool across jobs, scalar and vector convergecasts, N-proportional fork and meter costs",
		topology: "grid", n: 65536, values: wl.Zipf,
		members: []member{
			{query: engine.Query{Kind: engine.KindMedian}, want: wantMedian},
			{query: engine.Query{Kind: engine.KindQuantiles, Phis: bignetPhis}, want: wantQuantiles(bignetPhis)},
			{query: engine.Query{Kind: engine.KindCount}, want: wantCount},
			{query: engine.Query{Kind: engine.KindSum}, want: wantSum},
			{query: engine.Query{Kind: engine.KindMax}, want: wantMax},
			{query: engine.Query{Kind: engine.KindFused}, want: wantFused},
		},
		fixedOps: 100, warmup: 5,
	},
	{
		name:     "robust",
		why:      "8 robust subscribers on a 1024-node grid with 5% persistent liars: the byz audit and trimmed-sector plane, which no other workload touches",
		topology: "grid", n: 1024, values: wl.Uniform,
		// The fault stream is pinned: which nodes lie is a property of the
		// deployment, like its topology. Left to the run seed, audit traffic
		// swings ±20 % with where the liars sit and drowns every bound.
		faults: faults.Spec{Byz: 0.05, Seed: 1},
		serve:  true, subscribers: 8, drift: 50, robust: true,
		members: []member{
			{stmt: stmtMedian}, {stmt: stmtQuantiles}, {stmt: stmtCount}, {stmt: stmtSum},
		},
		fixedOps: 120, warmup: 5,
	},
	{
		name:     "churn",
		why:      "fused median+quantile+count under crashes, dead links and a mid-sweep strike with a fresh fault plan per op: heal, incomplete-sweep detection, re-heal and resume",
		topology: "grid", n: 4096, values: wl.Zipf,
		faults: faults.Spec{Crash: 0.03, LinkFail: 0.02, MidAt: 3, MidCrash: 0.05},
		retry:  engine.Retry{Budget: 2},
		fuse:   true, freshRunSeed: true,
		members: []member{
			{query: engine.Query{Kind: engine.KindMedian}},
			{query: engine.Query{Kind: engine.KindQuantile, Phi: 0.9}},
			{query: engine.Query{Kind: engine.KindCount}},
		},
		fixedOps: 800, warmup: 20,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer. The benchmark keeps its own copy (and
// its own percentile helpers) and borrows none from the program: a change to
// internal/hashing or internal/stats must not move the benchmark's inputs or
// its arithmetic.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// derive gives the i-th value of the named stream of a benchmark seed.
// Everything the program receives — deployment seed, drift, run seeds —
// comes from here, so one -seed fixes a run's inputs completely. The result
// is never zero (a zero RunSeed means "use the deployment seed").
func derive(seed uint64, stream string, i uint64) uint64 {
	h := mix64(seed)
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return mix64(h^i) | 1
}

func (w *workload) spec(seed uint64) engine.Spec {
	return engine.Spec{
		Topology: w.topology, N: w.n, Workload: string(w.values),
		Seed:   derive(seed, "deploy", 0),
		Faults: w.faults, Retry: w.retry,
	}.Normalize()
}

// memberCount is the number of answers one op attempts.
func (w *workload) memberCount() int {
	if w.serve {
		return w.subscribers
	}
	return len(w.members)
}

func (w *workload) member(i int) *member { return &w.members[i%len(w.members)] }

// driftFn is the benchmark's sensor drift model: a per-(epoch, node) hash
// moves each reading by a step in [-drift, +drift], floored at 0. It is a
// pure function, so the oracle's mirror applies it independently of serve.
func driftFn(seed, drift uint64) func(int, topology.NodeID, uint64) uint64 {
	key := derive(seed, "drift", 0)
	return func(epoch int, node topology.NodeID, prev uint64) uint64 {
		h := mix64(key ^ uint64(epoch)<<32 ^ uint64(node))
		next := int64(prev) + int64(h%(2*drift+1)) - int64(drift)
		if next < 0 {
			next = 0
		}
		return uint64(next)
	}
}

// instance is one live deployment of a workload: the engine with its
// session cache, the service and its subscriptions where the workload
// serves, and the oracle's mirror of the sensed values.
type instance struct {
	w    *workload
	seed uint64
	spec engine.Spec
	eng  *engine.Engine
	svc  *serve.Service
	subs []*serve.Subscription
	jobs []engine.Job
	opts []engine.SubmitOption

	tr  *tracer // non-nil while ops are traced
	ops int     // ops executed so far (the serve epoch number)
	out []serve.Result
	raw []engine.Result

	orc *oracle
}

// newInstance builds a cold deployment: a fresh session cache, engine,
// service and subscriptions. Nothing is built ahead of the first op — the
// template, the fork pool and the kernel scratch all come up inside it, so
// set-up time is newInstance plus op 0.
func newInstance(w *workload, seed uint64, workers int) (*instance, error) {
	inst := &instance{w: w, seed: seed, spec: w.spec(seed)}
	inst.eng = engine.New(engine.Options{Workers: workers, Session: engine.NewSession()})
	inst.orc = newOracle(w, inst.spec, seed)
	if !w.serve {
		for i := range w.members {
			inst.jobs = append(inst.jobs, engine.Job{
				ID: fmt.Sprintf("%s-%d", w.name, i), Spec: inst.spec, Query: w.members[i].query,
			})
		}
		if w.fuse {
			inst.opts = []engine.SubmitOption{engine.WithFusion()}
		}
		inst.out = make([]serve.Result, 0, len(w.members))
		return inst, nil
	}
	var update func(int, topology.NodeID, uint64) uint64
	if w.drift > 0 {
		update = driftFn(seed, w.drift)
	}
	svc, err := serve.New(serve.Options{Spec: inst.spec, Engine: inst.eng, Update: update, Robust: w.robust})
	if err != nil {
		return nil, err
	}
	inst.svc = svc
	for i := 0; i < w.subscribers; i++ {
		sub, err := svc.Subscribe(context.Background(), w.member(i).stmt)
		if err != nil {
			svc.Close()
			return nil, err
		}
		inst.subs = append(inst.subs, sub)
	}
	inst.out = make([]serve.Result, 0, w.subscribers)
	return inst, nil
}

func (inst *instance) close() {
	if inst.svc != nil {
		inst.svc.Close()
	}
}

// runSeed is op i's run seed for workloads whose fault plan changes per op.
func (inst *instance) runSeed(i int) uint64 {
	if !inst.w.freshRunSeed {
		return 0
	}
	return derive(inst.seed, "run", uint64(i))
}

// op executes the next op — the part the clock covers. A serve op advances
// one epoch and then, as the only client, drains every subscription's
// channel; a channel with nothing in it is a missing delivery, recorded as a
// zero Result, which is not usable.
func (inst *instance) op() {
	i := inst.ops
	inst.ops++
	inst.tr.nextOp()
	root := inst.tr.begin("bench.op")
	defer inst.tr.end(root)
	if inst.svc == nil {
		rs := inst.runSeed(i)
		for j := range inst.jobs {
			inst.jobs[j].RunSeed = rs
		}
		h := inst.tr.begin("engine.Submit")
		inst.raw = inst.eng.Submit(context.Background(), inst.jobs, inst.opts...)
		inst.tr.end(h)
		return
	}
	h := inst.tr.begin("serve.AdvanceEpoch")
	inst.svc.AdvanceEpoch(context.Background())
	inst.tr.end(h)
	h = inst.tr.begin("serve.drain")
	inst.out = inst.out[:0]
	for _, sub := range inst.subs {
		select {
		case r, ok := <-sub.Results():
			if ok {
				inst.out = append(inst.out, r)
				continue
			}
		default:
		}
		inst.out = append(inst.out, serve.Result{})
	}
	inst.tr.end(h)
}

// delivered returns the last op's answers, one per member in member order.
// It is called off the clock.
func (inst *instance) delivered() []serve.Result {
	if inst.svc == nil {
		inst.out = inst.out[:0]
		for _, r := range inst.raw {
			inst.out = append(inst.out, serve.Result{Result: r})
		}
	}
	return inst.out
}

// usable reports whether a delivered result is a fresh, complete answer.
func usable(r *serve.Result) bool {
	return r.Query.Kind != "" && !r.Failed() && !r.Degraded && !r.LKG
}

// answerValues returns a result's answer vector.
func answerValues(r *engine.Result) []float64 {
	if len(r.Values) > 0 {
		return r.Values
	}
	return []float64{r.Value}
}

// oracle is the benchmark's independent answer check: it owns a mirror of
// the sensed values (generated with workload.Generate and moved by the
// benchmark's own drift function, never read back from the program) and
// recomputes expected answers from a sorted copy kept in reused scratch.
type oracle struct {
	w      *workload
	maxX   uint64
	drift  func(int, topology.NodeID, uint64) uint64
	values []uint64 // node order, current epoch
	sorted []uint64 // scratch
	sum    uint64
}

func newOracle(w *workload, spec engine.Spec, seed uint64) *oracle {
	o := &oracle{w: w, maxX: spec.MaxX}
	g, err := topology.Build(spec.Topology, spec.N, spec.Seed)
	if err != nil {
		panic(err) // the workload table names a topology that does not exist
	}
	o.values = wl.Generate(w.values, g.N(), spec.MaxX, spec.Seed)
	o.sorted = make([]uint64, len(o.values))
	if w.drift > 0 {
		o.drift = driftFn(seed, w.drift)
	}
	return o
}

// advance moves the mirror to the given epoch (serve clamps drifted
// readings to the domain; so does the mirror).
func (o *oracle) advance(epoch int) {
	if o.drift == nil {
		return
	}
	for i, v := range o.values {
		next := o.drift(epoch, topology.NodeID(i), v)
		if next > o.maxX {
			next = o.maxX
		}
		o.values[i] = next
	}
}

// due reports whether op i (0-based within the timed phase) is re-checked.
func (o *oracle) due(i int) bool {
	if o.w.oracleEvery == 0 {
		return i == 0
	}
	return i%o.w.oracleEvery == 0
}

// check recomputes every member's expected answer from the mirror and
// returns how many delivered answers it compared and how many disagreed.
func (o *oracle) check(rs []serve.Result) (checked, wrong int) {
	copy(o.sorted, o.values)
	slices.Sort(o.sorted)
	o.sum = 0
	for _, v := range o.sorted {
		o.sum += v
	}
	var wants [][]float64
	for i := range o.w.members {
		if o.w.members[i].want == nil {
			wants = append(wants, nil)
			continue
		}
		wants = append(wants, o.w.members[i].want(o))
	}
	for i := range rs {
		want := wants[i%len(wants)]
		if want == nil || !usable(&rs[i]) {
			continue
		}
		checked++
		if !slices.Equal(answerValues(&rs[i].Result), want) {
			wrong++
		}
	}
	return checked, wrong
}

// rank is the benchmark's own statement of the quantile convention: the
// φ-quantile of n values is the ⌈φ·n⌉-th smallest.
func (o *oracle) rank(phi float64) float64 {
	k := int(math.Ceil(phi * float64(len(o.sorted))))
	if k < 1 {
		k = 1
	}
	return float64(o.sorted[k-1])
}

func wantMedian(o *oracle) []float64 { return []float64{float64(o.sorted[(len(o.sorted)+1)/2-1])} }
func wantCount(o *oracle) []float64  { return []float64{float64(len(o.sorted))} }
func wantSum(o *oracle) []float64    { return []float64{float64(o.sum)} }
func wantMax(o *oracle) []float64    { return []float64{float64(o.sorted[len(o.sorted)-1])} }
func wantAvg(o *oracle) []float64 {
	return []float64{float64(o.sum) / float64(len(o.sorted))}
}
func wantFused(o *oracle) []float64 {
	return []float64{float64(len(o.sorted)), float64(o.sum), float64(o.sorted[0]), float64(o.sorted[len(o.sorted)-1])}
}
func wantQuantiles(phis []float64) func(*oracle) []float64 {
	return func(o *oracle) []float64 {
		out := make([]float64, len(phis))
		for i, phi := range phis {
			out[i] = o.rank(phi)
		}
		return out
	}
}
