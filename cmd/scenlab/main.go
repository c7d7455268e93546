// Command scenlab runs declarative fault scenarios through the real
// query engine and gates the results.
//
// A scenario is a YAML spec (see scenarios/*.yaml): a deployment
// (topology, size, workload), a fault plan, a three-phase epoch schedule
// (warmup → inject → recovery), a query mix, a fixed seed, and release
// gates. scenlab executes each scenario N times (reruns), emits
// per-sample JSONL plus a provenance manifest and a markdown report, and
// exits nonzero when any declared gate is breached.
//
//	scenlab -suite scenarios/ -reruns 3 -out scenlab-out/
//	scenlab -scenario scenarios/crash-storm.yaml
//
// Everything in samples.jsonl is a pure function of (spec, seed):
// running the same suite twice produces byte-identical JSONL. Exit
// codes: 0 all gates pass, 1 gate breach or scenario error, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sensoragg/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suiteDir = fs.String("suite", "", "directory of scenario YAML files (sorted, all run)")
		scenFile = fs.String("scenario", "", "single scenario YAML file")
		reruns   = fs.Int("reruns", 0, "override every scenario's rerun count (0 = per-scenario)")
		outDir   = fs.String("out", "", "artifact directory for samples.jsonl, summary.json, provenance.json, report.md")
		workers  = fs.Int("workers", 0, "engine workers (0 = 1, the deterministic default)")
		quiet    = fs.Bool("q", false, "suppress per-scenario progress lines")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if (*suiteDir == "") == (*scenFile == "") {
		fmt.Fprintln(stderr, "scenlab: exactly one of -suite or -scenario is required")
		fs.Usage()
		return 2
	}

	var scenarios []*scenario.Scenario
	var err error
	if *suiteDir != "" {
		scenarios, err = scenario.LoadSuite(*suiteDir)
	} else {
		var s *scenario.Scenario
		s, err = scenario.Load(*scenFile)
		scenarios = []*scenario.Scenario{s}
	}
	if err != nil {
		fmt.Fprintf(stderr, "scenlab: %v\n", err)
		return 2
	}

	runner := scenario.NewRunner(scenario.Options{Reruns: *reruns, Workers: *workers})
	var results []*scenario.RunResult
	var findings []scenario.GateFinding
	files := make([]string, 0, len(scenarios))
	for _, s := range scenarios {
		files = append(files, s.File)
		if !*quiet {
			fmt.Fprintf(stdout, "scenlab: %s (%s n=%d, %d reruns × %d epochs)...\n",
				s.Name, s.Deployment.Topology, s.Deployment.N, runner.Reruns(s), s.Phases.Total())
		}
		res, err := runner.Run(context.Background(), s)
		if err != nil {
			fmt.Fprintf(stderr, "scenlab: %s: %v\n", s.Name, err)
			return 1
		}
		results = append(results, res)
		fs := scenario.Evaluate(&res.Summary)
		findings = append(findings, fs...)
		if !*quiet {
			for _, f := range fs {
				verdict := "pass"
				if !f.Pass {
					verdict = "FAIL"
				}
				fmt.Fprintf(stdout, "  gate %-18s %-4s  %s\n", f.Gate, verdict, f.Detail)
			}
		}
	}

	if *outDir != "" {
		prov := scenario.NewProvenance("scenlab", scenario.Options{Reruns: *reruns, Workers: *workers}, files)
		if err := scenario.WriteArtifacts(*outDir, results, findings, prov); err != nil {
			fmt.Fprintf(stderr, "scenlab: writing artifacts: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "scenlab: artifacts written to %s\n", *outDir)
		}
	}

	var breached []string
	for _, f := range findings {
		if !f.Pass {
			breached = append(breached, f.Scenario+"/"+f.Gate)
		}
	}
	if len(breached) == 0 {
		fmt.Fprintf(stdout, "scenlab: PASS — %d scenario(s), %d gate finding(s)\n", len(results), len(findings))
		return 0
	}
	fmt.Fprintf(stdout, "scenlab: FAIL — %d of %d gate finding(s) breached: %s\n", len(breached), len(findings), strings.Join(breached, ", "))
	return 1
}
