// Command benchmark is the repository's performance referee: one run
// executes one workload at one seed, checks every answer, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	go run -C benchmark . -workload fleet -seed 1 -seconds 25            # end-to-end metrics
//	go run -C benchmark . -workload fleet -seed 1 -seconds 25 -trace 1   # per-layer metrics
//	go run -C benchmark . -check                                         # determinism self-check
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; everything before it is for
// people. The exit status is non-zero when any answer was wrong, missing,
// failed, degraded or served stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// runSeconds is the run length BENCHMARK.json fixes for the driver.
const runSeconds = 25

func main() {
	name := flag.String("workload", "", "workload to run: fleet|bignet|robust|churn")
	seed := flag.Uint64("seed", 1, "derives every input the program receives (2 is the held-out seed)")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run — per-layer metrics from obs counts, spans and the layer ladder; spans go to .bench_out/spans-<workload>.jsonl")
	check := flag.Bool("check", false, "run the determinism self-check and exit")
	flag.Parse()

	if *check {
		if err := selfCheck(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: check:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (fleet|bignet|robust|churn)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}

	var rep *report
	var err error
	if *trace != 0 {
		rep, err = tracedRun(w, *seed, *seconds, fmt.Sprintf(".bench_out/spans-%s.jsonl", w.name))
	} else {
		rep, err = plainRun(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is one run's output: the human-readable table and the final JSON
// line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	header string
	extra  map[string]value // printed for people, not part of the JSON line
}

func newReport(m *measurement, mode string) *report {
	t := &m.all
	return &report{
		Correct:   t.usable == t.attempted && t.exact == t.known && t.known > 0,
		Attempted: t.attempted,
		Failed:    t.attempted - t.usable,
		Metrics:   map[string]value{},
		extra:     map[string]value{},
		header: fmt.Sprintf("workload %s seed %d (%s): N=%d, %d answers/op, %d timed ops in %.1fs, GOMAXPROCS=%d, engine workers=%d, %s, oracle compared %d answers",
			m.workload.name, m.seed, mode, m.workload.n, m.workload.memberCount(), len(m.records), m.wallSeconds,
			m.gomaxprocs, m.workers, runtime.Version(), t.oracled),
	}
}

func plainRun(w *workload, seed uint64, seconds float64) (*report, error) {
	m, err := measure(w, seed, seconds, 1)
	if err != nil {
		return nil, err
	}
	rep := newReport(m, "untraced")
	vals := endToEndValues(m)
	for _, d := range endToEnd {
		rep.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	for name, v := range driverValues(m) {
		rep.extra[name] = value{v, perLayerUnit(name)}
	}
	return rep, nil
}

func (r *report) print(out *os.File) {
	fmt.Fprintln(out, r.header)
	printValues(out, r.Metrics)
	if len(r.extra) > 0 {
		fmt.Fprintln(out, "ungated diagnostics:")
		printValues(out, r.extra)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(line))
}

func printValues(out *os.File, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-32s %16.6g %s\n", name, vals[name].Value, vals[name].Unit)
	}
}
