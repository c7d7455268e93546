// Command benchdiff compares a bench2json artifact against a committed
// baseline and fails (exit 1) on regressions of the columns that are exact
// on any runner, so CI can gate merges on the benchmark trajectory instead
// of only collecting it.
//
//	go test -bench=. -benchtime=20x -benchmem -run='^$' . | bench2json -o bench.json
//	benchdiff -baseline BENCH_BASELINE.json -current bench.json
//
// Wall-clock time is not gated: on shared runners it is noise. -current
// may be repeated (one bench2json artifact per bench run); the gate then
// compares the per-benchmark minimum allocs/op across the samples, which
// absorbs a run that paid a one-time lazy initialization. -samples N
// asserts exactly N artifacts were supplied, so a CI wiring slip fails
// loudly instead of silently gating on fewer runs.
//
// Two metrics gate, both hardware-independent:
//
//   - allocs/op: fails on any increase beyond -alloc-tol (default 0, with
//     a small absolute slack of -alloc-slack to absorb one-time lazy
//     initialization amortized over short runs).
//   - bits/node: the paper's own complexity measure, reported by the cost
//     benchmarks as a custom metric. Fails on regressions beyond -bits-tol
//     (default 5%). Communication cost is fully deterministic, so a faster
//     CPU cannot hide a protocol that started talking more. A baseline
//     entry that carries bits/node but whose current run lost it fails
//     under -require-all (a silently vanished metric must not disarm the
//     gate).
//
// Benchmarks present only in the current artifact are reported as new;
// benchmarks missing from the current artifact fail with -require-all.
// Use -update to rewrite the baseline file from the current artifacts; it
// writes no ns/op, so the baseline holds only exact columns.
//
// benchdiff is also the gate evaluator for the scenario lab: -scenario
// takes a summary.json written by cmd/scenlab and re-evaluates every
// declared release gate (max mean relative error, repair-bits variance
// across reruns, convergence, minimum sample count) from the stored
// rerun statistics — it does not trust the pass/fail verdict baked into
// the artifact. Each gate is reported independently and all must pass.
// Bench and scenario gates compose: supply -current, -scenario, or
// both; under -require-all a scenario that declares no gates at all is
// itself a failure.
//
//	benchdiff -scenario scenlab-out/summary.json -require-all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"strings"

	"sensoragg/internal/benchfmt"
	"sensoragg/internal/scenario"
)

// Entry and Artifact alias the schema shared with cmd/bench2json
// (internal/benchfmt).
type (
	Entry    = benchfmt.Entry
	Artifact = benchfmt.Artifact
)

// Options configures a comparison.
type Options struct {
	AllocTol   float64
	AllocSlack float64
	BitsTol    float64
	RequireAll bool
}

// Finding is one comparison outcome.
type Finding struct {
	Name       string
	Regression bool
	Detail     string
}

// pathList collects a repeatable flag.
type pathList []string

func (p *pathList) String() string     { return strings.Join(*p, ",") }
func (p *pathList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "baseline artifact (bench2json output)")
	var currentPaths pathList
	flag.Var(&currentPaths, "current", "current artifact to compare (bench2json output); repeat for multiple samples")
	samples := flag.Int("samples", 0, "require exactly this many -current artifacts (0 = any); gate on the min allocs/op across them")
	allocTol := flag.Float64("alloc-tol", 0, "allowed fractional allocs/op regression")
	allocSlack := flag.Float64("alloc-slack", 2, "allowed absolute allocs/op slack")
	bitsTol := flag.Float64("bits-tol", 0.05, "allowed fractional bits/node regression (deterministic, always gated)")
	requireAll := flag.Bool("require-all", false, "fail when a baseline benchmark is missing from current")
	update := flag.Bool("update", false, "rewrite the baseline from the current artifact and exit")
	mdPath := flag.String("md", "", "also write the comparison as a markdown table to this file (e.g. a CI step summary)")
	scenarioPath := flag.String("scenario", "", "scenlab summary.json: re-evaluate every scenario release gate")
	flag.Parse()

	if len(currentPaths) == 0 && *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: at least one of -current or -scenario is required")
		os.Exit(2)
	}
	if *samples > 0 && len(currentPaths) != *samples {
		fmt.Fprintf(os.Stderr, "benchdiff: -samples %d but %d -current artifact(s) supplied\n", *samples, len(currentPaths))
		os.Exit(2)
	}

	var findings []Finding
	if len(currentPaths) > 0 {
		arts := make([]*Artifact, 0, len(currentPaths))
		for _, path := range currentPaths {
			a, err := readArtifact(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				os.Exit(2)
			}
			arts = append(arts, a)
		}
		cur := MergeSamples(arts)
		if *update {
			if err := writeArtifact(*baselinePath, ExactColumns(cur)); err != nil {
				fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("benchdiff: baseline %s updated (%d benchmarks)\n", *baselinePath, len(cur.Entries))
			return
		}
		base, err := readArtifact(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		findings = Compare(base, cur, Options{
			AllocTol:   *allocTol,
			AllocSlack: *allocSlack,
			BitsTol:    *bitsTol,
			RequireAll: *requireAll,
		})
	}

	if *scenarioPath != "" {
		sr, err := scenario.LoadSuiteResult(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, CompareScenarios(sr, *requireAll)...)
	}

	regressions := 0
	for _, f := range findings {
		tag := "ok"
		if f.Regression {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-12s %s: %s\n", tag, f.Name, f.Detail)
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(Markdown(findings, len(currentPaths))), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: writing %s: %v\n", *mdPath, err)
			os.Exit(2)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d gate failure(s)\n", regressions)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all %d gate(s) pass\n", len(findings))
}

// CompareScenarios re-evaluates every release gate of a scenlab suite
// from its stored rerun statistics. The summary's own pass/fail verdict
// is ignored: the gate math runs here, on the numbers, so a stale or
// hand-edited verdict field can never green-light a merge. Each gate
// becomes one independent finding; under requireAll a scenario that
// declares no gates fails outright (an ungated scenario gates nothing).
func CompareScenarios(sr *scenario.SuiteResult, requireAll bool) []Finding {
	var findings []Finding
	for i := range sr.Scenarios {
		sum := &sr.Scenarios[i]
		if requireAll && !sum.Gates.Declared() {
			findings = append(findings, Finding{
				Name:       "scenario/" + sum.Name,
				Regression: true,
				Detail:     "declares no gates (-require-all)",
			})
		}
		for _, g := range scenario.Evaluate(sum) {
			findings = append(findings, Finding{
				Name:       "scenario/" + sum.Name + "/" + g.Gate,
				Regression: !g.Pass,
				Detail:     g.Detail,
			})
		}
	}
	return findings
}

// MergeSamples folds repeated bench runs into one artifact: the first
// sample's entries, each holding the minimum allocs/op any sample measured.
func MergeSamples(arts []*Artifact) *Artifact {
	if len(arts) == 1 {
		return arts[0]
	}
	merged := &Artifact{Meta: arts[0].Meta}
	idx := make(map[string]int)
	// allocSeen marks entries whose sample actually carried -benchmem data
	// (an "allocs/op" metric): a sample missing it reports AllocsPerOp 0,
	// which must not win the min and silently disarm the alloc gate.
	allocSeen := make(map[string]bool)
	hasAllocs := func(e Entry) bool { _, ok := e.Metrics["allocs/op"]; return ok }
	for _, a := range arts {
		for _, e := range a.Entries {
			i, ok := idx[e.Name]
			if !ok {
				idx[e.Name] = len(merged.Entries)
				merged.Entries = append(merged.Entries, e)
				allocSeen[e.Name] = hasAllocs(e)
				continue
			}
			m := &merged.Entries[i]
			if hasAllocs(e) && (!allocSeen[e.Name] || e.AllocsPerOp < m.AllocsPerOp) {
				m.AllocsPerOp = e.AllocsPerOp
				allocSeen[e.Name] = true
				// Keep the metrics map consistent with the gated field, so a
				// baseline written by -update never carries an allocs/op that
				// disagrees with the top-level value (clone before mutating —
				// the map is shared with the source sample).
				metrics := maps.Clone(m.Metrics)
				if metrics == nil {
					metrics = make(map[string]float64)
				}
				metrics["allocs/op"] = e.AllocsPerOp
				m.Metrics = metrics
			}
		}
	}
	return merged
}

// ExactColumns returns a copy of a without the wall-clock columns — each
// entry's ns/op and its "ns/op" metric — which is what -update commits.
func ExactColumns(a *Artifact) *Artifact {
	out := &Artifact{Meta: a.Meta, Entries: make([]Entry, len(a.Entries))}
	for i, e := range a.Entries {
		e.NsPerOp = 0
		e.Metrics = maps.Clone(e.Metrics)
		delete(e.Metrics, "ns/op")
		out.Entries[i] = e
	}
	return out
}

// Markdown renders the findings as a GitHub-flavored table for step
// summaries.
func Markdown(findings []Finding, samples int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Bench gate (%d sample(s), min allocs/op)\n\n", samples)
	b.WriteString("| Benchmark | Status | Detail |\n|---|---|---|\n")
	for _, f := range findings {
		status := "✅ ok"
		if f.Regression {
			status = "❌ regression"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", f.Name, status, strings.ReplaceAll(f.Detail, "|", "\\|"))
	}
	return b.String()
}

// Compare evaluates current against baseline under opts.
func Compare(base, cur *Artifact, opts Options) (findings []Finding) {
	curByName := make(map[string]Entry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	seen := make(map[string]bool, len(base.Entries))
	for _, b := range base.Entries {
		seen[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			f := Finding{Name: b.Name, Detail: "missing from current run"}
			f.Regression = opts.RequireAll
			findings = append(findings, f)
			continue
		}
		var problems []string
		if limit := b.AllocsPerOp*(1+opts.AllocTol) + opts.AllocSlack; c.AllocsPerOp > limit {
			problems = append(problems, fmt.Sprintf("allocs/op %.1f -> %.1f (limit %.1f)",
				b.AllocsPerOp, c.AllocsPerOp, limit))
		}
		// The communication gate: bits/node is exactly reproducible, so any
		// regression beyond the tolerance is a protocol change, not noise.
		baseBits, baseHas := b.Metrics["bits/node"]
		curBits, curHas := c.Metrics["bits/node"]
		okBits := ""
		switch {
		case baseHas && curHas:
			if baseBits > 0 && curBits > baseBits*(1+opts.BitsTol) {
				problems = append(problems, fmt.Sprintf("bits/node %.0f -> %.0f (%+.1f%%, tol %.0f%%)",
					baseBits, curBits, 100*(curBits/baseBits-1), 100*opts.BitsTol))
			} else {
				okBits = fmt.Sprintf(", bits/node %.0f -> %.0f", baseBits, curBits)
			}
		case baseHas && !curHas:
			// A benchmark that stopped reporting its communication cost
			// would silently disarm this gate; under -require-all that is a
			// failure, like a missing benchmark.
			if opts.RequireAll {
				problems = append(problems, "bits/node metric missing from current run")
			} else {
				okBits = ", bits/node metric missing from current run"
			}
		}
		if len(problems) > 0 {
			findings = append(findings, Finding{Name: b.Name, Regression: true, Detail: strings.Join(problems, "; ")})
			continue
		}
		findings = append(findings, Finding{Name: b.Name,
			Detail: fmt.Sprintf("allocs/op %.1f -> %.1f%s", b.AllocsPerOp, c.AllocsPerOp, okBits)})
	}
	for _, c := range cur.Entries {
		if !seen[c.Name] {
			findings = append(findings, Finding{Name: c.Name, Detail: "new benchmark (no baseline)"})
		}
	}
	return findings
}

func readArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &a, nil
}

func writeArtifact(path string, a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
