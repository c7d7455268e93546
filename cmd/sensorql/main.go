// Command sensorql is an interactive console for the TAG-style query
// language over a simulated sensor network: type SQL-ish aggregate
// statements, get answers plus the paper's per-node communication cost.
//
//	$ go run ./cmd/sensorql -topology rgg -n 2048 -workload drift
//	> SELECT median(value)
//	> SELECT quantile(value, 0.99) WHERE value >= 100
//	> SELECT distinct(value) USING sketch=1, m=256
//	> net grid 4096 zipf 7
//	> faults crash=0.05 dup=0.1
//	> SET FUSE ON
//	> SELECT median(value); SELECT quantile(value, 0.99); SELECT sum(value)
//
// Every statement is one engine.Submit job, mapped by serve.QueryFor —
// the same executor and the same mapping `serve` uses, so a console answer
// and its cost line are what a subscription would report. With `SET FUSE
// ON`, a semicolon-separated line executes as one shared-sweep fusion
// batch: the statements' probe thresholds merge into a single
// broadcast–convergecast schedule (engine.WithFusion), so the line costs
// roughly one statement's tree traffic instead of one per statement.
//
// The console also fronts the continuous-query serving layer: `subscribe
// SELECT median(value)` registers a standing statement, `epoch [k]`
// advances the deployment through the drift model (`set drift <step>`) and
// answers every subscription on one fused probe plane, with delta-narrowing
// seeding each epoch's k-ary search from the last answer.
//
// The `faults` command attaches an internal/faults plan to the deployment:
// crashes and dead links trigger the spantree self-healing repair, which
// every statement pays for in its cost line, and statements run over the
// healed tree with message-level faults applied per delivery.
//
// Deployments come from the engine's session cache: the `net` command
// switches networks, and switching back to a deployment you already used
// reuses its cached graph, spanning tree, and workload instead of
// rebuilding them (the hot path when comparing queries across networks).
//
// Statements are read line by line from stdin, so the console scripts
// cleanly: `echo "SELECT median(value)" | go run ./cmd/sensorql`.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"sensoragg/internal/core"
	"sensoragg/internal/energy"
	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
	"sensoragg/internal/obs"
	"sensoragg/internal/serve"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
)

func main() {
	topo := flag.String("topology", "grid", "line|ring|star|grid|densegrid|torus|complete|btree|barbell|rgg")
	n := flag.Int("n", 1024, "number of nodes")
	wl := flag.String("workload", "uniform", "input distribution")
	maxX := flag.Uint64("maxx", 0, "value domain bound X (default 4·n)")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	spec := engine.Spec{Topology: *topo, N: *n, Workload: *wl, MaxX: *maxX, Seed: *seed}
	if err := run(spec); err != nil {
		fmt.Fprintf(os.Stderr, "sensorql: %v\n", err)
		os.Exit(1)
	}
}

// console holds the session state: the engine's topology cache, the
// currently selected deployment, and the session-level protocol knobs.
type console struct {
	session *Session
	// eng runs every statement and backs the serving layer — one Submit
	// entrypoint, sharing the console's topology cache.
	eng  *engine.Engine
	spec engine.Spec
	// probeWidth is the session's k-ary probe batch width for selection
	// statements (SET PROBEWIDTH k); 0 means the engine default. A
	// statement-level USING probewidth=k overrides it.
	probeWidth int
	// fuse enables shared-sweep fusion for semicolon-batched statements
	// (SET FUSE ON|OFF): `SELECT median(value); SELECT quantile(value,
	// 0.9)` then executes as one fusion batch — one merged probe schedule
	// over the deployment instead of one schedule per statement.
	fuse bool
	// robust routes statements through the engine's Byzantine-robust
	// tier (SET ROBUST ON|OFF): answers carry integrity accounting, and
	// adversarial fault plans (`faults byz=...`) are localized and
	// quarantined before the answer. Robust jobs never fuse, and a
	// statement the tier cannot answer is refused.
	robust bool

	// Serving state: a lazily-built serve.Service over the current
	// deployment, the console's standing subscriptions by ID, and the
	// per-epoch drift amplitude for `set drift` (0 = static values).
	svc      *serve.Service
	subs     map[int]*serve.Subscription
	drift    uint64
	driftRng *rand.Rand
}

// Session aliases the engine session so the type reads naturally here.
type Session = engine.Session

// newConsole builds a console around one engine, whose session cache every
// layer (statements, fused batches, the serving layer) shares.
func newConsole() *console {
	eng := engine.New(engine.Options{})
	return &console{session: eng.Session(), eng: eng}
}

func run(spec engine.Spec) error {
	c := newConsole()
	if err := c.use(spec); err != nil {
		return err
	}
	model := energy.MoteDefaults()

	fmt.Println(`type a statement (e.g. SELECT median(value)), "net", "help", or "quit"`)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		firstToken := ""
		if fields := strings.Fields(line); len(fields) > 0 {
			firstToken = strings.ToLower(fields[0])
		}
		switch {
		case line == "":
		case strings.EqualFold(line, "quit"), strings.EqualFold(line, "exit"), line == "\\q":
			return nil
		case strings.EqualFold(line, "help"), line == "\\h":
			printHelp()
		case strings.EqualFold(line, "cache"):
			hits, misses := c.session.Stats()
			fmt.Printf("session cache: %d hits, %d misses\n", hits, misses)
		case strings.EqualFold(line, "stats"):
			c.statsCommand()
		case firstToken == "net":
			if err := c.netCommand(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case firstToken == "faults":
			if err := c.faultsCommand(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case firstToken == "set":
			if err := c.setCommand(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case firstToken == "subscribe":
			if err := c.subscribeCommand(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case firstToken == "unsubscribe":
			if err := c.unsubscribeCommand(line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case firstToken == "epoch":
			if err := c.epochCommand(line, model); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		default:
			if err := c.statements(splitStatements(line), model); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
		fmt.Print("> ")
	}
	return scanner.Err()
}

// statements answers one console line: every statement is a job of one,
// or with SET FUSE ON (and robust off) the whole line is one fused batch.
// A failing statement ends the line.
func (c *console) statements(stmts []string, model energy.Model) error {
	if len(stmts) > 1 && c.fuse && !c.robust {
		return c.execFused(stmts, model)
	}
	for _, stmt := range stmts {
		r, err := c.exec(stmt)
		if err != nil {
			return err
		}
		detail := r.Detail
		if r.Robust {
			detail = "robust" + robustDetail(r)
		}
		fmt.Printf("%s   (%s)\n", engine.FormatValues(r.Value, r.Values), detail)
		if r.SurvivorFrac > 0 && r.SurvivorFrac < 1 {
			note := ""
			if r.Degraded {
				note = " — DEGRADED (best-known bounds, no exactness claim)"
			}
			fmt.Printf("resilience: %d retry(ies), answer covers %.1f%% of the deployment%s\n",
				r.Retries, r.SurvivorFrac*100, note)
		}
		fmt.Printf("cost: %d bits/node (max), %d total bits — ≈ %s on the hottest node\n",
			r.BitsPerNode, r.TotalBits, hottestJoules(r.BitsPerNode, model))
	}
	return nil
}

// exec answers one statement as a job of one on the console's deployment.
func (c *console) exec(stmt string) (engine.Result, error) {
	jobs, err := c.jobs([]string{stmt})
	if err != nil {
		return engine.Result{}, err
	}
	r := c.eng.Submit(context.Background(), jobs)[0]
	if r.Failed() {
		return r, fmt.Errorf("%s", r.Error)
	}
	return r, nil
}

// jobs maps statements onto engine jobs against the console's deployment
// (serve.QueryFor), at the session probe width where the statement sets
// none, on the robust tier under SET ROBUST ON.
func (c *console) jobs(stmts []string) ([]engine.Job, error) {
	jobs := make([]engine.Job, len(stmts))
	for i, stmt := range stmts {
		q, _, err := serve.QueryFor(stmt)
		if err != nil {
			return nil, err
		}
		if c.robust {
			if !q.RobustCapable() {
				return nil, fmt.Errorf("%q has no robust path (exact selection/aggregate without WHERE); SET ROBUST OFF to run it plain", stmt)
			}
			q.Robust = true
		}
		if q.ProbeWidth == 0 {
			q.ProbeWidth = c.probeWidth
		}
		jobs[i] = engine.Job{ID: fmt.Sprintf("stmt-%d", i+1), Spec: c.spec, Query: q}
	}
	return jobs, nil
}

// hottestJoules prices bits on the hottest node, half sent and half
// received.
func hottestJoules(bits int64, model energy.Model) string {
	return energy.FormatJoules(float64(bits) * (model.TxPerBit + model.RxPerBit) / 2)
}

// setCommand parses the session knobs — `set probewidth <k|default>`,
// `set fuse <on|off>`, and `set drift <step|off>`. Bare `set` prints the
// current values.
func (c *console) setCommand(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 1 {
		if c.probeWidth == 0 {
			fmt.Printf("probewidth: engine default (%d)\n", core.DefaultProbeWidth)
		} else {
			fmt.Printf("probewidth: %d\n", c.probeWidth)
		}
		fmt.Printf("fuse: %s\n", onOff(c.fuse))
		fmt.Printf("robust: %s\n", onOff(c.robust))
		if c.drift == 0 {
			fmt.Println("drift: off (static values across epochs)")
		} else {
			fmt.Printf("drift: ±%d per node per epoch\n", c.drift)
		}
		if c.spec.Retry.Budget == 0 {
			fmt.Println("retry: off (a mid-sweep fault degrades the answer to best-known bounds)")
		} else {
			fmt.Printf("retry: budget %d\n", c.spec.Retry.Budget)
		}
		fmt.Printf("obs: %s\n", onOff(obs.Active() != nil))
		return nil
	}
	if len(fields) != 3 {
		return fmt.Errorf("usage: set probewidth <k|default> | set fuse <on|off> | set robust <on|off> | set drift <step|off> | set retry <n|off> | set obs <on|off>")
	}
	switch {
	case strings.EqualFold(fields[1], "probewidth"):
		if strings.EqualFold(fields[2], "default") {
			c.probeWidth = 0
			fmt.Printf("probewidth: engine default (%d)\n", core.DefaultProbeWidth)
			return nil
		}
		k, err := strconv.Atoi(fields[2])
		if err != nil || k < 1 || k > core.MaxProbeWidth {
			return fmt.Errorf("probewidth %q must be an integer in [1, %d] or \"default\"", fields[2], core.MaxProbeWidth)
		}
		c.probeWidth = k
		fmt.Printf("probewidth: %d\n", k)
		return nil
	case strings.EqualFold(fields[1], "fuse"):
		switch {
		case strings.EqualFold(fields[2], "on"):
			c.fuse = true
		case strings.EqualFold(fields[2], "off"):
			c.fuse = false
		default:
			return fmt.Errorf("fuse %q must be on or off", fields[2])
		}
		fmt.Printf("fuse: %s\n", onOff(c.fuse))
		return nil
	case strings.EqualFold(fields[1], "robust"):
		var want bool
		switch {
		case strings.EqualFold(fields[2], "on"):
			want = true
		case strings.EqualFold(fields[2], "off"):
			want = false
		default:
			return fmt.Errorf("robust %q must be on or off", fields[2])
		}
		if want != c.robust {
			c.robust = want
			// The serving layer bakes Robust in at construction; rebuild
			// it (and its subscriptions) on the next epoch.
			c.closeService()
		}
		if c.robust {
			fmt.Println("robust: on — statements answer on the Byzantine-robust tier (trimmed sectors, audits, integrity bounds; robust jobs run solo)")
		} else {
			fmt.Println("robust: off")
		}
		return nil
	case strings.EqualFold(fields[1], "drift"):
		if strings.EqualFold(fields[2], "off") {
			c.drift = 0
			fmt.Println("drift: off (static values across epochs)")
			return nil
		}
		step, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil || step == 0 || step > 1<<62 {
			return fmt.Errorf("drift %q must be a positive step or \"off\"", fields[2])
		}
		c.drift = step
		fmt.Printf("drift: ±%d per node per epoch\n", step)
		return nil
	case strings.EqualFold(fields[1], "retry"):
		if strings.EqualFold(fields[2], "off") {
			c.spec.Retry = engine.Retry{}
			// The serving layer bakes the spec in at construction.
			c.closeService()
			fmt.Println("retry: off — a mid-sweep fault degrades the answer to best-known bounds")
			return nil
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return fmt.Errorf("retry %q must be a non-negative budget or \"off\"", fields[2])
		}
		c.spec.Retry = engine.Retry{Budget: n}
		c.closeService()
		fmt.Printf("retry: budget %d — a mid-sweep fault re-heals and resumes up to %d time(s) before degrading\n", n, n)
		return nil
	case strings.EqualFold(fields[1], "obs"):
		switch {
		case strings.EqualFold(fields[2], "on"):
			// Idempotent: keep an already-active sink so accumulated
			// stats survive a redundant `set obs on`.
			if obs.Active() == nil {
				obs.Enable()
			}
			fmt.Println("obs: on — sweep/batch/epoch events and metrics recording (see `stats`)")
		case strings.EqualFold(fields[2], "off"):
			obs.Disable()
			fmt.Println("obs: off")
		default:
			return fmt.Errorf("obs %q must be on or off", fields[2])
		}
		return nil
	}
	return fmt.Errorf("usage: set probewidth <k|default> | set fuse <on|off> | set robust <on|off> | set drift <step|off> | set retry <n|off> | set obs <on|off>")
}

// robustDetail renders a robust result's integrity accounting for the
// console: exact when nothing was suspected, otherwise who was caught
// and how far the answer could be off.
func robustDetail(r engine.Result) string {
	if r.Quarantined == 0 && r.Suspected == 0 && r.IntegrityBound == 0 {
		return ", integrity exact"
	}
	return fmt.Sprintf(", quarantined %d, suspected %d, bound ±%d items — audit %d rounds, %d bits",
		r.Quarantined, r.Suspected, r.IntegrityBound, r.AuditRounds, r.AuditBits)
}

// statsCommand prints a snapshot of the active observability registry —
// the same numbers /metrics would expose — plus the trace depth.
func (c *console) statsCommand() {
	sk := obs.Active()
	if sk == nil {
		fmt.Println("obs: off — enable with `set obs on`")
		return
	}
	snap := sk.Metrics.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %d\n", n, snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %.4f\n", n, snap.Gauges[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		fmt.Printf("%-28s count=%d sum=%.4g mean=%.4g\n", n, h.Count, h.Sum, mean)
	}
	fmt.Printf("trace: %d events retained\n", sk.Tracer.Len())
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// splitStatements splits a console line on ';' into trimmed non-empty
// statements.
func splitStatements(line string) []string {
	parts := strings.Split(line, ";")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// execFused runs semicolon-batched statements as one fusion batch on the
// console's deployment: every fusable statement's probes merge into one
// shared sweep schedule (engine.WithFusion), and the cost line prices the
// whole plane once — the same bits would have been paid per statement
// without fusion. A statement that cannot fuse (a WHERE clause, a kind
// with a private schedule) runs solo in the same Submit and prints its
// own cost.
func (c *console) execFused(stmts []string, model energy.Model) error {
	jobs, err := c.jobs(stmts)
	if err != nil {
		return err
	}
	res := c.eng.Submit(context.Background(), jobs, engine.WithFusion())
	var plane *engine.Result
	fused := 0
	for i, r := range res {
		switch {
		case r.Failed():
			fmt.Printf("%-2d %s: error: %s\n", i+1, stmts[i], r.Error)
		case r.Fused:
			fmt.Printf("%-2d %s: %s\n", i+1, stmts[i], engine.FormatValues(r.Value, r.Values))
			fused++
			if plane == nil {
				// Every fused member's communication fields price the one
				// shared plane, so the first speaks for the batch.
				plane = &res[i]
			}
		default:
			fmt.Printf("%-2d %s: %s   (solo: %d bits/node)\n", i+1, stmts[i], engine.FormatValues(r.Value, r.Values), r.BitsPerNode)
		}
	}
	if plane != nil {
		fmt.Printf("fused: %d statements, %d shared sweeps — cost %d bits/node (max), %d total bits — ≈ %s on the hottest node\n",
			fused, plane.SharedSweeps, plane.BitsPerNode, plane.TotalBits, hottestJoules(plane.BitsPerNode, model))
	}
	return nil
}

// service lazily builds the console's serve.Service over the current
// deployment. The drift closure reads c.drift at each epoch, so `set
// drift` takes effect without rebuilding the service.
func (c *console) service() (*serve.Service, error) {
	if c.svc != nil {
		return c.svc, nil
	}
	c.driftRng = rand.New(rand.NewSource(int64(c.spec.Seed)))
	svc, err := serve.New(serve.Options{
		Spec:   c.spec,
		Engine: c.eng,
		Robust: c.robust,
		Update: func(e int, node topology.NodeID, prev uint64) uint64 {
			step := int64(c.drift)
			if step == 0 {
				return prev
			}
			// Per-node random walk of amplitude ±drift, deterministic from
			// the deployment seed.
			next := int64(prev) + c.driftRng.Int63n(2*step+1) - step
			if next < 0 {
				next = 0
			}
			return uint64(next) // the service clamps to MaxX
		},
	})
	if err != nil {
		return nil, err
	}
	c.svc = svc
	c.subs = make(map[int]*serve.Subscription)
	return svc, nil
}

// closeService tears the serving layer down (deployment switched): every
// subscription dies with the service it was registered on.
func (c *console) closeService() {
	if c.svc == nil {
		return
	}
	c.svc.Close()
	c.svc = nil
	if len(c.subs) > 0 {
		fmt.Printf("serving: deployment changed — %d subscription(s) closed, re-subscribe on the new network\n", len(c.subs))
	}
	c.subs = nil
}

// subscribeCommand registers `subscribe <statement>` as a standing query:
// every subsequent `epoch` answers it on the shared fused plane.
func (c *console) subscribeCommand(line string) error {
	stmt := strings.TrimSpace(line[len("subscribe"):])
	if stmt == "" {
		return fmt.Errorf("usage: subscribe <statement>")
	}
	svc, err := c.service()
	if err != nil {
		return err
	}
	sub, err := svc.Subscribe(context.Background(), stmt)
	if err != nil {
		return err
	}
	c.subs[sub.ID] = sub
	fmt.Printf("subscribed [%d] %s — \"epoch\" delivers per-epoch answers\n", sub.ID, stmt)
	return nil
}

// unsubscribeCommand detaches `unsubscribe <id>`.
func (c *console) unsubscribeCommand(line string) error {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return fmt.Errorf("usage: unsubscribe <id>")
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return fmt.Errorf("bad subscription id %q", fields[1])
	}
	sub, ok := c.subs[id]
	if !ok {
		return fmt.Errorf("no subscription [%d]", id)
	}
	sub.Unsubscribe()
	delete(c.subs, id)
	fmt.Printf("unsubscribed [%d]\n", id)
	return nil
}

// epochCommand advances the deployment `epoch [k]` epochs: each advance
// drifts the sensed values (see `set drift`) and re-answers every
// subscription as one fused batch, delta-narrowing each selection from its
// answer history.
func (c *console) epochCommand(line string, model energy.Model) error {
	fields := strings.Fields(line)
	k := 1
	if len(fields) > 1 {
		var err error
		if k, err = strconv.Atoi(fields[1]); err != nil || k < 1 || k > 1<<20 {
			return fmt.Errorf("epoch count %q must be an integer in [1, %d]", fields[1], 1<<20)
		}
	}
	if len(fields) > 2 {
		return fmt.Errorf("usage: epoch [k]")
	}
	svc, err := c.service()
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		out := svc.AdvanceEpoch(context.Background())
		if len(out) == 0 {
			fmt.Printf("epoch %d: advanced (no subscriptions; \"subscribe <statement>\" first)\n", svc.Epoch())
			continue
		}
		for _, r := range out {
			stmt := ""
			if sub, ok := c.subs[r.SubID]; ok {
				stmt = " " + sub.Statement()
			}
			if r.Failed() {
				fmt.Printf("epoch %d [%d]%s: error: %s\n", r.Epoch, r.SubID, stmt, r.Error)
				continue
			}
			seeded := ""
			if r.SeedHit {
				seeded = fmt.Sprintf(", seeded %d/%d sweeps", r.SeededSweeps, r.SharedSweeps)
			}
			if r.Robust {
				seeded += robustDetail(r.Result)
			}
			fmt.Printf("epoch %d [%d]%s: %s — %d bits/node (max)%s — ≈ %s on the hottest node\n",
				r.Epoch, r.SubID, stmt, engine.FormatValues(r.Value, r.Values),
				r.BitsPerNode, seeded, hottestJoules(r.BitsPerNode, model))
		}
	}
	// The console prints from AdvanceEpoch's return value; drain the
	// channel copies so slow-console epochs never count as drops.
	for _, sub := range c.subs {
		drainResults(sub.Results())
	}
	return nil
}

// drainResults empties a subscription channel without blocking.
func drainResults(ch <-chan serve.Result) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// use switches the console to spec, instantiating it off the session
// cache. An active fault plan with structural faults is previewed with one
// self-healing tree repair; every statement then heals its own run the
// same way and pays for the repair in its cost line.
func (c *console) use(spec engine.Spec) error {
	spec = spec.Normalize()
	c.closeService()
	nw, err := c.session.Instantiate(spec, spec.Seed)
	if err != nil {
		return err
	}
	defer nw.Release()
	_, hr, err := spantree.NewFastHealed(nw)
	if err != nil {
		return err
	}
	if hr != nil {
		fmt.Printf("faults: %d crashed, %d fragments reattached, %d unreachable — repair cost %d bits per statement\n",
			hr.Crashed, hr.Reattached, hr.Unreachable, hr.Repair.TotalBits)
	}
	c.spec = spec
	fmt.Printf("sensorql — %s, N=%d, X=%d, workload %s, tree height %d, faults %s\n",
		spec.Topology, nw.N(), spec.MaxX, spec.Workload, nw.Tree.Height(), spec.Faults)
	return nil
}

// faultsCommand parses `faults [off | key=value ...]` (faults.ParseSpec)
// and re-instantiates the deployment under the new fault plan. Bare
// `faults` prints the current one.
func (c *console) faultsCommand(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 1 {
		fmt.Printf("faults: %s\n", c.spec.Faults)
		return nil
	}
	fs, err := faults.ParseSpec(strings.Join(fields[1:], " "))
	if err != nil {
		return err
	}
	spec := c.spec
	spec.Faults = fs
	return c.use(spec)
}

// netCommand parses `net [topology [n [workload [seed]]]]` and switches the
// console's deployment. Bare `net` prints the current one.
func (c *console) netCommand(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 1 {
		fmt.Printf("current: %s\n", c.spec)
		return nil
	}
	spec := c.spec
	spec.MaxX = 0 // re-derive from the (possibly new) N
	spec.Topology = fields[1]
	if len(fields) > 2 {
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("bad n %q: %w", fields[2], err)
		}
		// An interactive typo must not OOM the console: a 2^22-node
		// simulation is already beyond what the sweeps use.
		if n < 1 || n > 1<<22 {
			return fmt.Errorf("n %d out of range [1, %d]", n, 1<<22)
		}
		spec.N = n
	}
	if len(fields) > 3 {
		spec.Workload = fields[3]
	}
	if len(fields) > 4 {
		seed, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", fields[4], err)
		}
		spec.Seed = seed
	}
	return c.use(spec)
}

func printHelp() {
	fmt.Println(`aggregates:
  min(value) max(value) count(value) sum(value) avg(value)      Fact 2.1
  median(value)     [USING probewidth=K]         exact, Thm 3.2 (k-ary batched probes)
  quantile(value, PHI)  [USING probewidth=K]     exact k-order statistic, §3.4
  quantiles(value, PHI, ...) [USING probewidth=K]
                                                 multi-quantile, one shared probe schedule
  apxmedian(value)  [USING eps=E]                randomized, Thm 4.5
  apxmedian2(value) [USING eps=E, beta=B]        polyloglog, Cor 4.8
  apxcount(value)                                one α-counting instance, Fact 2.2
  distinct(value) [USING sketch=1, m=M]          §5: exact or sketch
  f2(value)                                      AMS [1] second frequency moment (5×64 sketch)
clauses:
  WHERE value < C | value >= C | value BETWEEN A AND B | ... AND ...
                                         count/sum/avg/apxcount filter in-network;
                                         min/max/selection/distinct/f2 filter first;
                                         not with SET ROBUST ON or a phased plan
  USING key=value, ...                   only the aggregate's own keys (above);
                                         probewidth=K overrides the session width
every statement runs through the engine (one job, or one fused batch under
SET FUSE ON); its cost line includes the tree repair a fault plan needs
console:
  net [topology [n [workload [seed]]]]   switch deployment (cached trees)
  faults [off | crash=P drop=P dup=P linkfail=P byz=P byzmode=M seed=S]
                                         set the deployment's fault plan;
                                         crashes/dead links self-heal the tree;
                                         byz=P makes nodes lie, byzmode M is
                                         corrupt|equivocate|collude
  faults crash@sweep=K=P | linkfail@sweep=K=P | rootkill@sweep=K
                                         phased plan: the fault fires at sweep
                                         boundary K WHILE the query runs; the
                                         engine detects the lost subtrees,
                                         re-heals (re-rooting if the root died)
                                         and resumes within SET RETRY's budget,
                                         degrading to best-known bounds after
  set probewidth <k|default>             COUNT probes batched per selection sweep
  set fuse <on|off>                      fuse "stmt; stmt; ..." lines into one
                                         shared-sweep batch (one probe plane
                                         answers every statement at once)
  set robust <on|off>                    answer on the Byzantine-robust tier:
                                         audit and quarantine liars, trim sector
                                         partials, report an integrity bound
  set drift <step|off>                   per-epoch ±step random walk of every
                                         node's reading (the epoch drift model)
  set retry <n|off>                      mid-sweep retry budget: how many
                                         detect → re-heal → resume rounds a
                                         phased fault plan gets before the
                                         answer degrades
  set obs <on|off>                       record sweep/batch/epoch events and
                                         metrics (zero-cost while off)
  stats                                  print the obs registry snapshot
                                         (counters, gauges, histograms, trace depth)
serving (continuous queries):
  subscribe <statement>                  register a standing query
  unsubscribe <id>                       drop it
  epoch [k]                              advance k epochs: drift the values,
                                         answer every subscription on one
                                         fused plane, delta-narrowing each
                                         selection from its answer history
  cache                                  show session cache hits/misses`)
}
