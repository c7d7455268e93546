// Package benchfmt defines the JSON schema shared by cmd/bench2json
// (which writes benchmark artifacts) and cmd/benchdiff (which compares
// them): one source of truth, so a schema change cannot silently desync
// the writer from the gate.
package benchfmt

// Entry is one benchmark result line.
type Entry struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix Go's testing package appends when GOMAXPROCS != 1
	// (e.g. "BenchmarkEngineMedian8/parallel/workers=8-8").
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// NsPerOp is the wall-clock ns/op: reported, never gated, and absent
	// from a baseline benchdiff -update writes.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// AllocsPerOp is the -benchmem allocation count, flattened next to
	// ns/op so the benchdiff gate can compare it without digging through
	// the metrics map.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds every reported metric by unit, ns/op included.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Artifact is the bench2json output schema.
type Artifact struct {
	Meta    map[string]string `json:"meta,omitempty"`
	Entries []Entry           `json:"benchmarks"`
}
