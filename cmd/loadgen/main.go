// Command loadgen drives the continuous-query serving layer the way a
// dashboard fleet would: K subscribers register the same standing
// statement, the deployment drifts epoch over epoch, and every epoch
// answers all K on one fused probe plane with delta-narrowing seeding each
// k-ary search from the answer history. It reports p50/p95 per-subscriber
// epoch latency, the per-epoch bits/node (the paper measure) next to one
// solo query's plane, the delta-narrowing hit rate, and per-subscriber
// shed-delivery counts.
//
//	$ go run ./cmd/loadgen -subscribers 64 -epochs 10
//	$ go run ./cmd/loadgen -subscribers 64 -epochs 10 -json
//	$ go run ./cmd/loadgen -obs-addr 127.0.0.1:9137 -linger 30s -json
//
// Observability is always on for the run: the JSON report embeds a final
// metrics registry snapshot, the tail of the sweep/batch/epoch trace, and
// git-commit provenance. With -obs-addr the live introspection endpoint
// (/metrics, /healthz, /debug/trace, /debug/pprof) serves while the run
// executes — and keeps serving for -linger afterwards so CI can scrape
// the finished run's counters.
//
// Exit status is non-zero if any delivery failed, went missing, or was
// shed to a slow subscriber, so CI can use a short run as a smoke test of
// the serving stack.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/obs"
	"sensoragg/internal/obs/obshttp"
	"sensoragg/internal/serve"
	"sensoragg/internal/topology"
)

func main() {
	topo := flag.String("topology", "grid", "line|ring|star|grid|torus|complete|btree|rgg")
	n := flag.Int("n", 4096, "number of nodes")
	wl := flag.String("workload", "uniform", "input distribution")
	seed := flag.Uint64("seed", 1, "random seed")
	subscribers := flag.Int("subscribers", 64, "standing subscriptions")
	epochs := flag.Int("epochs", 10, "epochs to advance")
	drift := flag.Uint64("drift", 200, "per-node ±step random walk per epoch (0 = static values)")
	byz := flag.Float64("byz", 0, "fault plan: Byzantine (lying) node probability (root exempt)")
	byzMode := flag.String("byzmode", "", "Byzantine lie discipline: corrupt|equivocate|collude (default corrupt)")
	robust := flag.Bool("robust", false, "serve every subscription on the Byzantine-robust tier (audits, quarantine, integrity bounds)")
	retryBudget := flag.Int("retry-budget", 0, "mid-sweep retry budget: detect → re-heal → resume attempts before an answer degrades to best-known bounds")
	statement := flag.String("statement", "SELECT median(value)", "the standing statement")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	buffer := flag.Int("buffer", 0, "subscription channel depth (0 = deep enough for the whole run; small values exercise shed-oldest delivery)")
	obsAddr := flag.String("obs-addr", "", "serve the live introspection endpoint (/metrics, /healthz, /debug/trace, /debug/pprof) on this address")
	linger := flag.Duration("linger", 0, "keep the -obs-addr endpoint up this long after the run, so the final counters can be scraped")
	flag.Parse()

	// The whole run records into a fresh sink; the report embeds its
	// final state.
	sink := obs.Enable()
	defer obs.Disable()
	var obsSrv *obshttp.Server
	if *obsAddr != "" {
		var err error
		obsSrv, err = obshttp.ListenAndServe(*obsAddr, sink, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		defer obsSrv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: obs endpoint on http://%s\n", obsSrv.Addr)
	}

	spec := engine.Spec{Topology: *topo, N: *n, Workload: *wl, Seed: *seed,
		Faults: faults.Spec{Byz: *byz, ByzMode: *byzMode},
		Retry:  engine.Retry{Budget: *retryBudget}}
	rep, err := run(spec, *subscribers, *epochs, *drift, *statement, *buffer, *robust)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	rep.Obs = snapshotObs(sink)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	} else {
		rep.print()
	}

	if obsSrv != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: lingering %s on http://%s for scrapes\n", *linger, obsSrv.Addr)
		time.Sleep(*linger)
	}
	if rep.Failed > 0 || rep.Missing > 0 || rep.SubsDroppedTotal > 0 {
		os.Exit(1)
	}
}

// report is loadgen's stable JSON output.
type report struct {
	Spec        engine.Spec `json:"spec"`
	Statement   string      `json:"statement"`
	Subscribers int         `json:"subscribers"`
	Epochs      int         `json:"epochs"`
	Drift       uint64      `json:"drift"`
	// RetryBudget is the engine's mid-sweep retry budget the run served
	// under (-retry-budget).
	RetryBudget int `json:"retry_budget"`

	// Deliveries counts results received on subscription channels; Missing
	// is how many of the expected subscribers×epochs never arrived, Failed
	// how many arrived as errors.
	Deliveries int `json:"deliveries"`
	Failed     int `json:"failed"`
	Missing    int `json:"missing"`

	// DroppedPerSubscriber is each subscription's Dropped() count in
	// subscription order; SubsDroppedTotal is their sum. Non-zero means
	// the epoch stream shed deliveries to a slow subscriber, and loadgen
	// exits non-zero.
	DroppedPerSubscriber []int64 `json:"dropped_per_subscriber,omitempty"`
	SubsDroppedTotal     int64   `json:"subs_dropped_total"`

	// P50LatencyNS/P95LatencyNS are per-subscriber epoch latencies: epoch
	// advance start to the subscriber receiving its result.
	P50LatencyNS int64 `json:"p50_latency_ns"`
	P95LatencyNS int64 `json:"p95_latency_ns"`

	// EpochBitsPerNode is the mean per-epoch bits/node serving ALL
	// subscribers (one fused plane); SoloBitsPerNode is one from-scratch
	// solo query's plane for comparison.
	EpochBitsPerNode float64 `json:"epoch_bits_per_node"`
	SoloBitsPerNode  int64   `json:"solo_bits_per_node"`

	// SeedHitRate is the fraction of steady-state deliveries (epoch ≥ 3,
	// when a move estimate exists) whose seeded search contained the
	// answer.
	SeedHitRate float64 `json:"seed_hit_rate"`

	// Robust marks a run served on the Byzantine-robust tier, and
	// RobustDeliveries counts the deliveries answered on it. The totals
	// aggregate over all deliveries: QuarantinedTotal counts convicted
	// liars (each epoch re-runs localization on its forked fault plan),
	// and MaxIntegrityBound is the worst per-answer bound — 0 means every
	// delivered answer was certified exact over the honest survivors.
	Robust            bool   `json:"robust,omitempty"`
	RobustDeliveries  int    `json:"robust_deliveries,omitempty"`
	QuarantinedTotal  int64  `json:"quarantined_total,omitempty"`
	SuspectedTotal    int64  `json:"suspected_total,omitempty"`
	MaxIntegrityBound uint64 `json:"max_integrity_bound,omitempty"`

	// Obs embeds the run's final observability state: the metrics
	// registry snapshot, the trace tail, and provenance.
	Obs *obsReport `json:"obs,omitempty"`
}

// obsReport is the embedded observability snapshot.
type obsReport struct {
	Metrics    obs.Snapshot `json:"metrics"`
	TraceTail  []obs.Event  `json:"trace_tail"`
	Provenance provenance   `json:"provenance"`
}

type provenance struct {
	GitCommit string `json:"git_commit"`
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
}

// traceTailLen bounds the trace excerpt embedded in the report (the full
// ring is available on /debug/trace while the endpoint lingers).
const traceTailLen = 64

func snapshotObs(sink *obs.Sink) *obsReport {
	return &obsReport{
		Metrics:   sink.Metrics.Snapshot(),
		TraceTail: sink.Tracer.Last(traceTailLen),
		Provenance: provenance{
			GitCommit: gitCommit(),
			GoVersion: runtime.Version(),
			Timestamp: time.Now().UTC().Format(time.RFC3339),
		},
	}
}

// gitCommit resolves the build's VCS revision: the stamped build info
// when present (binaries built from a clean checkout), the working
// tree's HEAD as a fallback (`go run` does not stamp VCS), else
// "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
}

func (r *report) print() {
	spec := r.Spec
	fmt.Printf("loadgen: %s N=%d X=%d workload %s — %d subscriber(s) × %d epoch(s), drift ±%d\n",
		spec.Topology, spec.N, spec.MaxX, spec.Workload, r.Subscribers, r.Epochs, r.Drift)
	fmt.Printf("deliveries: %d (%d failed, %d missing, %d dropped)\n", r.Deliveries, r.Failed, r.Missing, r.SubsDroppedTotal)
	fmt.Printf("per-subscriber epoch latency: p50 %s, p95 %s\n",
		time.Duration(r.P50LatencyNS), time.Duration(r.P95LatencyNS))
	ratio := 0.0
	if r.SoloBitsPerNode > 0 {
		ratio = r.EpochBitsPerNode / float64(r.SoloBitsPerNode)
	}
	fmt.Printf("epoch cost: %.0f bits/node serving all %d — one solo query costs %d bits/node (%.2fx)\n",
		r.EpochBitsPerNode, r.Subscribers, r.SoloBitsPerNode, ratio)
	fmt.Printf("delta-narrowing: %.0f%% of steady-state epochs answered inside the seeded window\n",
		100*r.SeedHitRate)
	if r.Robust {
		fmt.Printf("robust tier: %d of %d deliveries, %d quarantined, %d suspected across them, worst integrity bound ±%d items\n",
			r.RobustDeliveries, r.Deliveries, r.QuarantinedTotal, r.SuspectedTotal, r.MaxIntegrityBound)
	}
	if r.Obs != nil {
		fmt.Printf("obs: %d sweeps, %d broadcasts, %d epochs recorded (commit %s)\n",
			r.Obs.Metrics.Counters["sweeps_total"], r.Obs.Metrics.Counters["broadcasts_total"],
			r.Obs.Metrics.Counters["epochs_total"], r.Obs.Provenance.GitCommit)
	}
}

type delivery struct {
	epoch       int
	latencyNS   int64
	bits        int64
	seedHit     bool
	failed      bool
	robust      bool
	quarantined int
	suspected   int
	bound       uint64
}

func run(spec engine.Spec, subscribers, epochs int, drift uint64, statement string, buffer int, robust bool) (*report, error) {
	if subscribers < 1 || epochs < 1 {
		return nil, fmt.Errorf("need at least 1 subscriber and 1 epoch")
	}
	spec = spec.Normalize()
	eng := engine.New(engine.Options{})

	// One solo from-scratch query prices the per-query plane the serving
	// layer amortizes across the fleet.
	soloQuery, _, err := serve.QueryFor(statement)
	if err != nil {
		return nil, err
	}
	soloQuery.Robust = robust && soloQuery.RobustCapable()
	solo := eng.Submit(context.Background(), []engine.Job{{Spec: spec, Query: soloQuery}})[0]
	if solo.Failed() {
		return nil, fmt.Errorf("solo %q: %s", statement, solo.Error)
	}

	if buffer <= 0 {
		// Deep enough that no epoch is ever shed: latency is the metric.
		// An explicit -buffer exercises the shed-oldest delivery path
		// instead, and any drop fails the run.
		buffer = epochs + 1
	}
	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	svc, err := serve.New(serve.Options{
		Spec:   spec,
		Engine: eng,
		// Per-node ±drift random walk; AdvanceEpoch runs the closure from
		// one goroutine, so the shared rng is safe.
		Update: func(e int, node topology.NodeID, prev uint64) uint64 {
			if drift == 0 {
				return prev
			}
			next := int64(prev) + rng.Int63n(2*int64(drift)+1) - int64(drift)
			if next < 0 {
				next = 0
			}
			return uint64(next)
		},
		Buffer: buffer,
		Robust: robust,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	// starts[e] is written before epoch e advances; the result delivery
	// inside AdvanceEpoch happens-after it, so consumers read it safely.
	starts := make([]time.Time, epochs+1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var deliveries []delivery

	subs := make([]*serve.Subscription, 0, subscribers)
	for i := 0; i < subscribers; i++ {
		sub, err := svc.Subscribe(context.Background(), statement)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range sub.Results() {
				d := delivery{
					epoch:       r.Epoch,
					latencyNS:   time.Since(starts[r.Epoch]).Nanoseconds(),
					bits:        r.BitsPerNode,
					seedHit:     r.SeedHit,
					failed:      r.Failed(),
					robust:      r.Robust,
					quarantined: r.Quarantined,
					suspected:   r.Suspected,
					bound:       r.IntegrityBound,
				}
				mu.Lock()
				deliveries = append(deliveries, d)
				mu.Unlock()
			}
		}()
	}

	for e := 1; e <= epochs; e++ {
		starts[e] = time.Now()
		svc.AdvanceEpoch(context.Background())
	}
	svc.Close() // closes the subscription channels, ending the consumers
	wg.Wait()

	rep := &report{
		Spec:            spec,
		Statement:       statement,
		Subscribers:     subscribers,
		Epochs:          epochs,
		Drift:           drift,
		RetryBudget:     spec.Retry.Budget,
		Deliveries:      len(deliveries),
		SoloBitsPerNode: solo.BitsPerNode,
		Robust:          robust,
	}
	for _, sub := range subs {
		d := sub.Dropped()
		rep.DroppedPerSubscriber = append(rep.DroppedPerSubscriber, d)
		rep.SubsDroppedTotal += d
	}
	// A shed delivery is both dropped and missing; a consumer that never
	// got the chance to receive it still expected it.
	rep.Missing = subscribers*epochs - len(deliveries)
	latencies := make([]int64, 0, len(deliveries))
	epochBits := make(map[int]int64, epochs)
	steady, hits := 0, 0
	for _, d := range deliveries {
		if d.failed {
			rep.Failed++
			continue
		}
		latencies = append(latencies, d.latencyNS)
		epochBits[d.epoch] = d.bits // fused: every delivery prices the one shared plane
		if d.robust {
			rep.RobustDeliveries++
		}
		rep.QuarantinedTotal += int64(d.quarantined)
		rep.SuspectedTotal += int64(d.suspected)
		if d.bound > rep.MaxIntegrityBound {
			rep.MaxIntegrityBound = d.bound
		}
		if d.epoch >= 3 {
			steady++
			if d.seedHit {
				hits++
			}
		}
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P50LatencyNS = latencies[len(latencies)/2]
		rep.P95LatencyNS = latencies[len(latencies)*95/100]
	}
	var bits int64
	for _, b := range epochBits {
		bits += b
	}
	if len(epochBits) > 0 {
		rep.EpochBitsPerNode = float64(bits) / float64(len(epochBits))
	}
	if steady > 0 {
		rep.SeedHitRate = float64(hits) / float64(steady)
	}
	return rep, nil
}
