package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Provenance pins a suite run to its inputs: the code revision, the Go
// toolchain, the effective rerun override, and a digest of every
// scenario file executed. It is the only artifact allowed to carry a
// timestamp — samples.jsonl must stay byte-identical across runs.
type Provenance struct {
	Tool      string            `json:"tool"`
	GitCommit string            `json:"git_commit"`
	GoVersion string            `json:"go_version"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	Timestamp string            `json:"timestamp"`
	Reruns    int               `json:"reruns,omitempty"` // override, 0 = per-scenario
	Workers   int               `json:"workers"`
	Scenarios map[string]string `json:"scenarios"` // file -> sha256
}

// NewProvenance builds the manifest for a suite run over the given
// scenario files.
func NewProvenance(tool string, opts Options, files []string) Provenance {
	p := Provenance{
		Tool:      tool,
		GitCommit: gitCommit(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Reruns:    opts.Reruns,
		Workers:   opts.Workers,
		Scenarios: map[string]string{},
	}
	for _, f := range files {
		if data, err := os.ReadFile(f); err == nil {
			p.Scenarios[f] = fmt.Sprintf("%x", sha256.Sum256(data))
		} else {
			p.Scenarios[f] = "unreadable"
		}
	}
	return p
}

// gitCommit resolves the build's VCS revision: the stamped build info
// when present, the working tree's HEAD as a fallback (`go run` does
// not stamp VCS), else "unknown".
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

// SuiteResult is the gate-facing artifact for a whole suite run —
// summary.json on disk, and what `benchdiff -scenario` loads back.
type SuiteResult struct {
	Tool      string        `json:"tool"`
	Scenarios []Summary     `json:"scenarios"`
	Findings  []GateFinding `json:"findings"`
	Pass      bool          `json:"pass"`
}

// LoadSuiteResult reads a summary.json written by scenlab.
func LoadSuiteResult(path string) (*SuiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr SuiteResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sr.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: no scenarios in summary", path)
	}
	return &sr, nil
}

// WriteJSONL streams the run's records — samples and epoch rows in
// emission order — one compact JSON object per line. Struct-based
// marshaling keeps field order fixed, and no record carries wall-clock
// state, so the stream is byte-identical for identical (suite, seed,
// reruns) inputs.
func WriteJSONL(w io.Writer, results []*RunResult) error {
	enc := json.NewEncoder(w)
	for _, res := range results {
		for _, rec := range res.Records {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteReport renders the human-readable markdown report: one section
// per scenario with its deployment, fault plan, headline stats, and the
// gate table.
func WriteReport(w io.Writer, results []*RunResult, findings []GateFinding, prov Provenance) error {
	byScenario := map[string][]GateFinding{}
	for _, f := range findings {
		byScenario[f.Scenario] = append(byScenario[f.Scenario], f)
	}
	pass := AllPass(findings)
	status := "PASS"
	if !pass {
		status = "FAIL"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Scenario lab report — %s\n\n", status)
	fmt.Fprintf(&b, "- commit: `%s`\n- toolchain: %s %s/%s\n- generated: %s\n- scenarios: %d, gate findings: %d\n\n",
		prov.GitCommit, prov.GoVersion, prov.GOOS, prov.GOARCH, prov.Timestamp, len(results), len(findings))

	for _, res := range results {
		s := &res.Summary
		fmt.Fprintf(&b, "## %s\n\n", s.Name)
		fmt.Fprintf(&b, "`%s` n=%d workload=%s · phases %d/%d/%d · reruns %d · seed %d",
			s.Deployment.Topology, s.Deployment.N, s.Deployment.Workload,
			s.Phases.Warmup, s.Phases.Inject, s.Phases.Recovery, s.Reruns, s.Seed)
		if s.Robust {
			b.WriteString(" · robust")
		}
		fmt.Fprintf(&b, "\nqueries: %s\n", strings.Join(s.Queries, ", "))
		fmt.Fprintf(&b, "faults: crash=%.3g linkfail=%.3g drop=%.3g dup=%.3g byz=%.3g\n\n",
			s.Faults.Crash, s.Faults.LinkFail, s.Faults.Drop, s.Faults.Dup, s.Faults.Byz)
		fmt.Fprintf(&b, "- samples %d (errors %d), converged: %v\n", s.Samples, s.Errors, s.Converged)
		fmt.Fprintf(&b, "- mean rel err %.6g (inject-phase %.6g)\n", s.MeanRelErr, s.InjectMeanRelErr)
		fmt.Fprintf(&b, "- repair bits %.1f ± %.1f across reruns (cv %.4f)\n", s.RepairBitsMean, s.RepairBitsStd, s.RepairBitsCV)
		if s.MeanEpochWallNS > 0 {
			fmt.Fprintf(&b, "- mean epoch latency %.3f ms (informational)\n", float64(s.MeanEpochWallNS)/1e6)
		}
		b.WriteString("\n| gate | verdict | value | limit | detail |\n|---|---|---|---|---|\n")
		for _, f := range byScenario[s.Name] {
			verdict := "pass"
			if !f.Pass {
				verdict = "**FAIL**"
			}
			value := "—"
			if f.Value != nil {
				value = fmt.Sprintf("%.6g", *f.Value)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.6g | %s |\n", f.Gate, verdict, value, f.Limit, f.Detail)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteArtifacts writes the full artifact set for a suite run into dir:
// samples.jsonl, summary.json, provenance.json, and report.md.
func WriteArtifacts(dir string, results []*RunResult, findings []GateFinding, prov Provenance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jsonl, err := os.Create(dir + "/samples.jsonl")
	if err != nil {
		return err
	}
	if err := WriteJSONL(jsonl, results); err != nil {
		jsonl.Close()
		return err
	}
	if err := jsonl.Close(); err != nil {
		return err
	}

	suite := SuiteResult{Tool: prov.Tool, Findings: findings, Pass: AllPass(findings)}
	for _, res := range results {
		suite.Scenarios = append(suite.Scenarios, res.Summary)
	}
	sort.Slice(suite.Scenarios, func(i, j int) bool { return suite.Scenarios[i].Name < suite.Scenarios[j].Name })
	if err := writeJSON(dir+"/summary.json", &suite); err != nil {
		return err
	}
	if err := writeJSON(dir+"/provenance.json", &prov); err != nil {
		return err
	}
	report, err := os.Create(dir + "/report.md")
	if err != nil {
		return err
	}
	if err := WriteReport(report, results, findings, prov); err != nil {
		report.Close()
		return err
	}
	return report.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
