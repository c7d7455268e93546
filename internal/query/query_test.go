package query

import (
	"strings"
	"testing"

	"sensoragg/internal/wire"
)

// parseCases are well-formed statements and what they parse to.
var parseCases = []struct {
	in      string
	agg     AggKind
	phi     float64
	where   *wire.Pred
	options map[string]float64
}{
	{"SELECT median(value)", AggMedian, 0, nil, nil},
	{"select MIN(value)", AggMin, 0, nil, nil},
	{"SELECT quantile(value, 0.99)", AggQuantile, 0.99, nil, nil},
	{"SELECT count(value) WHERE value < 100", AggCount, 0, predPtr(wire.Less(100)), nil},
	{"SELECT sum(value) WHERE value >= 5", AggSum, 0, predPtr(wire.GreaterEq(5)), nil},
	{"SELECT count(value) WHERE value > 5", AggCount, 0, predPtr(wire.GreaterEq(6)), nil},
	{"SELECT count(value) WHERE value <= 7", AggCount, 0, predPtr(wire.Less(8)), nil},
	{"SELECT count(value) WHERE value = 9", AggCount, 0, predPtr(wire.InRange(9, 10)), nil},
	{"SELECT avg(value) WHERE value BETWEEN 10 AND 20", AggAvg, 0, predPtr(wire.InRange(10, 21)), nil},
	{"SELECT count(value) WHERE value >= 3 AND value < 12", AggCount, 0, predPtr(wire.InRange(3, 12)), nil},
	{"SELECT apxmedian(value) USING eps=0.1", AggApxMedian, 0, nil, map[string]float64{"eps": 0.1}},
	{"SELECT apxmedian2(value) USING eps=0.25, beta=0.0625", AggApxMedian2, 0, nil,
		map[string]float64{"eps": 0.25, "beta": 0.0625}},
	{"SELECT distinct(value) USING sketch=1, m=256", AggDistinct, 0, nil,
		map[string]float64{"sketch": 1, "m": 256}},
}

func TestParseStatements(t *testing.T) {
	for _, tt := range parseCases {
		t.Run(tt.in, func(t *testing.T) {
			q, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if q.Agg != tt.agg {
				t.Errorf("agg = %q, want %q", q.Agg, tt.agg)
			}
			if q.Phi != tt.phi {
				t.Errorf("phi = %g, want %g", q.Phi, tt.phi)
			}
			if (q.Where == nil) != (tt.where == nil) {
				t.Fatalf("where = %v, want %v", q.Where, tt.where)
			}
			if tt.where != nil && *q.Where != *tt.where {
				t.Errorf("where = %+v, want %+v", *q.Where, *tt.where)
			}
			for k, v := range tt.options {
				if q.Options[k] != v {
					t.Errorf("option %s = %g, want %g", k, q.Options[k], v)
				}
			}
		})
	}
}

func predPtr(p wire.Pred) *wire.Pred { return &p }

// TestParseQuantiles covers the multi-quantile form and its edge cases,
// asserting the exact error surface the console shows.
func TestParseQuantiles(t *testing.T) {
	q, err := Parse("SELECT quantiles(value, 0.25, 0.5, 0.9)")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Agg != AggQuantiles {
		t.Errorf("agg = %q, want %q", q.Agg, AggQuantiles)
	}
	if len(q.Phis) != 3 || q.Phis[0] != 0.25 || q.Phis[1] != 0.5 || q.Phis[2] != 0.9 {
		t.Errorf("phis = %v", q.Phis)
	}

	// The upper bound 1 is a legal rank (the maximum).
	q, err = Parse("SELECT quantiles(value, 1)")
	if err != nil || len(q.Phis) != 1 || q.Phis[0] != 1 {
		t.Errorf("quantiles(value, 1): phis=%v err=%v", q.Phis, err)
	}

	for _, tc := range []struct {
		in, want string
	}{
		// Empty rank list: the probe plane has nothing to probe.
		{"SELECT quantiles(value)", "at least one fraction"},
		// Duplicate ranks are a user error, not a silent dedupe.
		{"SELECT quantiles(value, 0.5, 0.5)", "duplicate quantile rank"},
		// Bounds: 0 selects nothing, above 1 is no rank at all.
		{"SELECT quantiles(value, 0)", "out of (0,1]"},
		{"SELECT quantiles(value, 0.5, 1.01)", "out of (0,1]"},
	} {
		_, err := Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): err %v, want containing %q", tc.in, err, tc.want)
		}
	}
}

// badStatements are malformed statements Parse must refuse.
var badStatements = []string{
	"",
	"median(value)",                        // missing SELECT
	"SELECT frobnicate(value)",             // unknown aggregate
	"SELECT median(x)",                     // only `value` is a column
	"SELECT quantile(value)",               // missing fraction
	"SELECT quantile(value, 1.5)",          // out of range
	"SELECT median(value) WHERE value ! 3", // bad operator
	"SELECT count(value) WHERE value BETWEEN 9 AND 2",      // inverted
	"SELECT count(value) WHERE value < 3 AND value >= 7",   // empty interval
	"SELECT median(value) USING eps",                       // missing =
	"SELECT median(value) extra",                           // trailing garbage
	"SELECT median(value) WHERE value < 5 WHERE value < 7", // duplicate WHERE
}

func TestParseErrors(t *testing.T) {
	for _, in := range badStatements {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

// FuzzParse: whatever the input, Parse returns a statement or an error —
// exactly one of them — and never panics. A long-lived service parses
// whatever a subscriber sends. The corpus starts from the statements the
// parse tests pin, well-formed and malformed.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.in)
	}
	for _, in := range badStatements {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a statement and an error", in, q, err)
		}
	})
}
