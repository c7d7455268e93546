// Command experiments regenerates the EXPERIMENTS.md tables: every
// experiment (E1–E13) indexed in DESIGN.md, printed as markdown.
//
// The suite runs concurrently on a worker pool (each experiment is
// independent and internally deterministic); tables are always rendered in
// report order regardless of completion order. A table carrying a FAIL
// note (an inexact answer, a theorem bound breached) makes the command
// exit 1 once every table is rendered.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only E3,E8] [-parallel K] [-o out.md]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sensoragg/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "trim sweeps and trial counts for a fast run")
	seed := flag.Uint64("seed", 1, "base random seed")
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	parallel := flag.Int("parallel", 0, "experiments run concurrently (default GOMAXPROCS, 1 = serial)")
	outPath := flag.String("o", "", "write markdown to this file instead of stdout")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *outPath, err)
		}
		defer f.Close()
		out = f
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(out, "<!-- generated by cmd/experiments (mode=%s seed=%d) -->\n\n", mode, *seed)
	tables, err := experiments.RunConcurrent(cfg, ids, *parallel, func(id string) {
		fmt.Fprintf(os.Stderr, "running %s...\n", id)
	})
	if err != nil {
		return err
	}
	var failed []string
	for i, table := range tables {
		if err := table.Render(out); err != nil {
			return fmt.Errorf("rendering %s: %w", ids[i], err)
		}
		for _, note := range table.Notes {
			if strings.Contains(note, "FAIL") {
				failed = append(failed, ids[i]+": "+note)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d FAIL note(s):\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}
