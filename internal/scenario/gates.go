package scenario

import (
	"fmt"
	"math"
)

// MinRerunsForVariance is the floor below which an across-rerun variance
// estimate is meaningless; the repair-bits gate refuses to pass with
// fewer reruns rather than vacuously passing on a sample of one.
const MinRerunsForVariance = 3

// GateFinding is one gate's verdict for one scenario. Every declared
// gate is evaluated and reported independently; a scenario passes only
// when all of them do.
type GateFinding struct {
	Scenario string `json:"scenario"`
	Gate     string `json:"gate"`
	Pass     bool   `json:"pass"`
	// Value is the measured quantity, nil where it is undefined (a
	// variance over too few reruns, a CV over a mean of 0): JSON has no
	// NaN or infinity, so an undefined value is omitted.
	Value  *float64 `json:"value,omitempty"`
	Limit  float64  `json:"limit,omitempty"`
	Detail string   `json:"detail"`
}

// Evaluate runs every gate the scenario declared against its summary,
// plus the structural sample-count checks that are always on. Findings
// come back in a fixed order (samples, convergence, accuracy, variance)
// so reports and CI logs are stable.
func Evaluate(sum *Summary) []GateFinding {
	var out []GateFinding
	add := func(gate string, pass bool, value, limit float64, detail string) {
		f := GateFinding{Scenario: sum.Name, Gate: gate, Pass: pass, Limit: limit, Detail: detail}
		if !math.IsNaN(value) && !math.IsInf(value, 0) {
			f.Value = &value
		}
		out = append(out, f)
	}

	// min-samples: enough samples overall, and — missing-rerun check —
	// stats present for every rerun the run made. A crashed or truncated
	// run can't sneak a thin sample set past the other gates. The declared
	// floor covers the scenario's declared reruns, so a run with more or
	// fewer scales it by their ratio, rounded up.
	minSamples := sum.Gates.MinSamples
	if d := sum.DeclaredReruns; d > 0 && d != sum.Reruns {
		minSamples = (minSamples*sum.Reruns + d - 1) / d
	}
	if minSamples < 1 {
		minSamples = 1
	}
	switch {
	case len(sum.RerunStats) != sum.Reruns:
		add("min-samples", false, float64(len(sum.RerunStats)), float64(sum.Reruns),
			fmt.Sprintf("missing reruns: have stats for %d of %d declared", len(sum.RerunStats), sum.Reruns))
	case sum.Samples < minSamples:
		add("min-samples", false, float64(sum.Samples), float64(minSamples),
			fmt.Sprintf("%d samples < required %d", sum.Samples, minSamples))
	default:
		add("min-samples", true, float64(sum.Samples), float64(minSamples),
			fmt.Sprintf("%d samples across %d reruns", sum.Samples, sum.Reruns))
	}

	// convergence: every rerun finished every query without error and
	// every recovery-phase answer was exact — the fault plan's damage
	// healed, it did not linger.
	if sum.Gates.Converge {
		detail := "every rerun converged: no errors, recovery phase exact"
		if !sum.Converged {
			bad := 0
			for _, rs := range sum.RerunStats {
				if rs.Errors > 0 || !rs.RecoveryExact {
					bad++
				}
			}
			detail = fmt.Sprintf("%d of %d reruns failed to converge (errors or inexact recovery)", bad, len(sum.RerunStats))
		}
		add("convergence", sum.Converged, boolAsFloat(sum.Converged), 1, detail)
	}

	// max-mean-rel-err: mean relative error vs survivor ground truth,
	// averaged across reruns. Equality passes — the limit is inclusive.
	if sum.Gates.MaxMeanRelErr != nil {
		limit := *sum.Gates.MaxMeanRelErr
		pass := sum.MeanRelErr <= limit
		add("max-mean-rel-err", pass, sum.MeanRelErr, limit,
			fmt.Sprintf("mean rel err %.6g (inject-phase %.6g) vs limit %.6g",
				sum.MeanRelErr, sum.InjectMeanRelErr, limit))
	}

	// max-repair-bits-cv: across-rerun coefficient of variation of the
	// total repair traffic. Needs at least MinRerunsForVariance reruns to
	// mean anything. All-zero repair (CV 0) passes any limit; a mean of 0
	// with spread leaves the CV undefined and fails.
	if sum.Gates.MaxRepairBitsCV != nil {
		limit := *sum.Gates.MaxRepairBitsCV
		switch {
		case len(sum.RerunStats) < MinRerunsForVariance:
			add("max-repair-bits-cv", false, math.NaN(), limit,
				fmt.Sprintf("variance gate needs >=%d reruns, have %d", MinRerunsForVariance, len(sum.RerunStats)))
		case sum.RepairBitsMean == 0 && sum.RepairBitsStd > 0:
			add("max-repair-bits-cv", false, math.NaN(), limit,
				"repair bits mean 0 with nonzero spread")
		default:
			pass := sum.RepairBitsCV <= limit
			add("max-repair-bits-cv", pass, sum.RepairBitsCV, limit,
				fmt.Sprintf("repair bits %.1f±%.1f across %d reruns, cv %.4f vs limit %.4f",
					sum.RepairBitsMean, sum.RepairBitsStd, len(sum.RerunStats), sum.RepairBitsCV, limit))
		}
	}
	return out
}

// AllPass reports whether every finding passed.
func AllPass(findings []GateFinding) bool {
	for _, f := range findings {
		if !f.Pass {
			return false
		}
	}
	return true
}

func boolAsFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
