package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"sensoragg/internal/stats"
)

// KindSummary aggregates the paper's bits-per-node cost (and accuracy)
// across every run of one query kind.
type KindSummary struct {
	Kind            string  `json:"kind"`
	Runs            int     `json:"runs"`
	Failed          int     `json:"failed"`
	ExactRuns       int     `json:"exact_runs"`
	MeanBitsPerNode float64 `json:"mean_bits_per_node"`
	MaxBitsPerNode  int64   `json:"max_bits_per_node"`
	MeanTotalBits   float64 `json:"mean_total_bits"`
	MeanWallNS      float64 `json:"mean_wall_ns"`
	// MeanRelErr is the mean relative error |value−truth|/truth over the
	// truth-known runs — the accuracy side of an accuracy-vs-fault-rate
	// sweep. Zero when every run was exact (or no truth was known).
	MeanRelErr float64 `json:"mean_rel_err"`
	// MeanRepairBits is the mean self-healing repair traffic per run,
	// bits; nonzero only under structural fault plans.
	MeanRepairBits float64 `json:"mean_repair_bits,omitempty"`
}

// Report is the batched result collector's output: per-run results plus
// per-kind aggregates, JSON-serializable so batch runs feed dashboards and
// the CI bench artifact.
type Report struct {
	Workers int           `json:"workers"`
	Jobs    int           `json:"jobs"`
	Failed  int           `json:"failed"`
	WallNS  int64         `json:"wall_ns"`
	Summary []KindSummary `json:"summary"`
	Results []Result      `json:"results"`
}

// Collect builds a report from a batch of results. batchWall is the
// wall-clock time of the whole batch (which is what the worker pool
// compresses; the per-run WallNS sum is the serial-equivalent cost).
func Collect(e *Engine, results []Result, batchWall time.Duration) *Report {
	r := &Report{
		Workers: e.Workers(),
		Jobs:    len(results),
		WallNS:  batchWall.Nanoseconds(),
		Results: results,
	}
	byKind := make(map[string]*KindSummary)
	truthRuns := make(map[string]int)
	for _, res := range results {
		k := res.Query.Kind
		s, ok := byKind[k]
		if !ok {
			s = &KindSummary{Kind: k}
			byKind[k] = s
		}
		s.Runs++
		if res.Failed() {
			s.Failed++
			r.Failed++
			continue
		}
		if res.Exact {
			s.ExactRuns++
		}
		if res.TruthKnown {
			truthRuns[k]++
			s.MeanRelErr += stats.RelErr(res.Value, res.Truth)
		}
		s.MeanBitsPerNode += float64(res.BitsPerNode)
		s.MeanTotalBits += float64(res.TotalBits)
		s.MeanWallNS += float64(res.WallNS)
		s.MeanRepairBits += float64(res.RepairBits)
		if res.BitsPerNode > s.MaxBitsPerNode {
			s.MaxBitsPerNode = res.BitsPerNode
		}
	}
	for _, s := range byKind {
		if ok := s.Runs - s.Failed; ok > 0 {
			s.MeanBitsPerNode /= float64(ok)
			s.MeanTotalBits /= float64(ok)
			s.MeanWallNS /= float64(ok)
			s.MeanRepairBits /= float64(ok)
		}
		if tr := truthRuns[s.Kind]; tr > 0 {
			s.MeanRelErr /= float64(tr)
		}
		r.Summary = append(r.Summary, *s)
	}
	sort.Slice(r.Summary, func(i, j int) bool { return r.Summary[i].Kind < r.Summary[j].Kind })
	return r
}

// FormatValue renders a query answer the way the CLIs print it: integers
// without a decimal point, everything else with three decimals.
func FormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// FormatValues renders a multi-value answer the way the CLIs print it —
// "[v1 v2 ...]" — falling back to FormatValue for single answers, so
// every console formats result vectors identically.
func FormatValues(value float64, values []float64) string {
	if len(values) < 2 {
		return FormatValue(value)
	}
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = FormatValue(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("engine: encoding report: %w", err)
	}
	return nil
}
