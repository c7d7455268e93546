package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step); bound is the share of
// the parent's median an end-to-end metric may worsen by; README.md, "Bounds",
// says what each rests on.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end metrics only
}

// endToEnd is what a user of the system sees, in reporting order.
var endToEnd = []metricDef{
	{"answers_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"bits_per_node", "bits", "lower", 0.10},
	{"total_kbits_per_op", "kbit", "lower", 0.10},
	{"sweeps_per_op", "count", "lower", 0.05},
	{"exact_frac", "fraction", "higher", 0.001},
	{"ok_frac", "fraction", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndValues computes every end-to-end metric of a measurement. Host
// metrics range over the whole timed phase; the simulated counters over its
// fixed-count prefix, so they are functions of (code, seed) alone.
func endToEndValues(m *measurement) map[string]float64 {
	ops := float64(len(m.records))
	return map[string]float64{
		"answers_per_s":      median(m.sliceRates()),
		"op_p50_us":          percentile(m.opMicros(), 50),
		"allocs_per_op":      float64(m.mallocs) / ops,
		"alloc_kb_per_op":    float64(m.allocBytes) / 1024 / ops,
		"live_heap_mb":       float64(m.liveHeapBytes) / (1 << 20),
		"bits_per_node":      m.fixed.perOp(m.fixed.bits),
		"total_kbits_per_op": m.fixed.perOp(m.fixed.totalBits) / 1000,
		"sweeps_per_op":      m.fixed.perOp(m.fixed.sweeps),
		"exact_frac":         m.all.exactFrac(),
		"ok_frac":            m.all.okFrac(),
		"setup_s":            median(m.setupSeconds),
	}
}

// driverValues are the ungated diagnostics of the same untraced run: tail
// latency, CPU, GC and RSS do not repeat within a tenth on a shared box, so
// they explain a wall-time change (less work, more cores, or GC) without
// gating anything.
func driverValues(m *measurement) map[string]float64 {
	us := m.opMicros()
	ops := float64(len(m.records))
	tail := tailPercentile(len(us))
	return map[string]float64{
		"process.cpu_us_per_op":      m.cpuSeconds * 1e6 / ops,
		"process.gc_per_op":          float64(m.gcCycles) / ops,
		"process.gc_pause_us_per_op": float64(m.gcPauseNS) / 1e3 / ops,
		"process.peak_rss_mb":        float64(m.peakRSSKB) / 1024,
		"driver.op_tail_us":          percentile(us, tail),
		"driver.op_tail_pct":         tail,
		"driver.op_max_us":           us[len(us)-1],
		"driver.samples":             ops,
		"driver.slice_rate_iqr_frac": iqrFrac(m.sliceRates()),
	}
}
