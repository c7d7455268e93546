package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"sensoragg/internal/serve"
)

// Protocol constants (see README.md, "Measurement protocol").
const (
	setupMinReps    = 5   // cold set-ups per run, at least
	setupMinSeconds = 1.5 // and until this much set-up time has accumulated
	rateSlices      = 10  // answers_per_s is the median rate of this many slices
)

// opRecord is what the benchmark keeps of one op.
type opRecord struct {
	seconds float64 // wall time of the op
	answers int     // usable answers delivered
}

// tally accumulates answer accounting and the simulated counters over ops.
type tally struct {
	ops       int
	attempted int // answers attempted
	usable    int // fresh, complete answers
	known     int // usable answers with a truth to compare against
	exact     int // of those, equal to the truth (and to the oracle where it looked)
	oracled   int // answers the independent oracle compared
	bits      int64
	totalBits int64
	sweeps    int64
	retries   int64
	digest    uint64 // order-sensitive hash of every answer value

	// What the traced run reports per layer.
	fused, degraded, lkg                int
	repairBits, auditBits               int64
	auditRounds, quarantined, suspected int
	boundMax                            uint64
}

// add accounts one op's delivered results. oracleWrong is the number of
// answers the independent oracle contradicted on this op: they lose their
// exact mark even if the engine's own comparison passed.
func (t *tally) add(rs []serve.Result, oracleChecked, oracleWrong int) (usableN int) {
	t.ops++
	t.attempted += len(rs)
	t.oracled += oracleChecked
	exact := 0
	fusedSeen := false
	for i := range rs {
		r := &rs[i]
		t.degraded += btoi(r.Degraded)
		t.lkg += btoi(r.LKG)
		if !usable(r) {
			continue
		}
		usableN++
		t.fused += btoi(r.Fused)
		t.auditRounds += r.AuditRounds
		t.auditBits += r.AuditBits
		t.quarantined += r.Quarantined
		t.suspected += r.Suspected
		t.boundMax = max(t.boundMax, r.IntegrityBound)
		// A fused plane's cost is reported by every member: count it once.
		// Solo jobs each paid their own.
		if !r.Fused || !fusedSeen {
			t.bits += r.BitsPerNode
			t.totalBits += r.TotalBits
			t.sweeps += int64(r.SharedSweeps)
			t.retries += int64(r.Retries)
			t.repairBits += r.RepairBits
			fusedSeen = fusedSeen || r.Fused
		}
		for _, v := range answerValues(&r.Result) {
			t.digest = mix64(t.digest ^ uint64(int64(v*1024)))
		}
		if r.TruthKnown {
			t.known++
			if r.Exact && r.IntegrityBound == 0 {
				exact++
			}
		}
	}
	t.usable += usableN
	t.exact += exact - oracleWrong
	return usableN
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (t *tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.usable) / float64(t.attempted)
}

func (t *tally) exactFrac() float64 {
	if t.known == 0 {
		return 0
	}
	return float64(t.exact) / float64(t.known)
}

func (t *tally) perOp(x int64) float64 {
	if t.ops == 0 {
		return 0
	}
	return float64(x) / float64(t.ops)
}

// measurement is everything one run of one workload produces.
type measurement struct {
	workload   *workload
	seed       uint64
	gomaxprocs int
	workers    int

	setupSeconds []float64 // each cold set-up, newInstance through op 0
	records      []opRecord
	all          tally // every timed op
	fixed        tally // the first workload.fixedOps timed ops only

	mallocs, allocBytes uint64 // over the timed phase
	gcCycles            uint32
	gcPauseNS           uint64
	cpuSeconds          float64
	wallSeconds         float64
	liveHeapBytes       uint64
	peakRSSKB           int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// coldSetups repeats the cold set-up — a fresh session, engine, service and
// subscriptions, through the first answered op — and keeps the last
// instance. A single set-up of a few milliseconds is a coin toss on a
// shared box; the median of many is not.
func coldSetups(w *workload, seed uint64, workers int, minReps int, minSeconds float64) (*instance, []float64, error) {
	var kept *instance
	var secs []float64
	var total float64
	for len(secs) < minReps || total < minSeconds {
		if kept != nil {
			kept.close()
			kept = nil
		}
		runtime.GC()
		start := time.Now()
		inst, err := newInstance(w, seed, workers)
		if err != nil {
			return nil, nil, err
		}
		inst.op()
		d := time.Since(start).Seconds()
		rs := inst.delivered()
		if n := countUsable(rs); n != len(rs) {
			inst.close()
			return nil, nil, fmt.Errorf("%s: first op answered %d of %d: %s", w.name, n, len(rs), firstError(rs))
		}
		inst.orc.advance(inst.ops)
		secs = append(secs, d)
		total += d
		kept = inst
	}
	return kept, secs, nil
}

func countUsable(rs []serve.Result) int {
	n := 0
	for i := range rs {
		if usable(&rs[i]) {
			n++
		}
	}
	return n
}

func firstError(rs []serve.Result) string {
	for i := range rs {
		if rs[i].Error != "" {
			return rs[i].Error
		}
	}
	return "no error reported"
}

// step runs one op on the clock and accounts it off the clock: into all,
// and into fixed when the op belongs to the fixed-count prefix. timedIndex is
// the op's index in the timed phase, -1 during warm-up (no oracle).
func step(inst *instance, timedIndex int, all, fixed *tally) opRecord {
	start := time.Now()
	inst.op()
	d := time.Since(start).Seconds()

	rs := inst.delivered()
	inst.orc.advance(inst.ops)
	checked, wrong := 0, 0
	if timedIndex >= 0 && inst.orc.due(timedIndex) {
		checked, wrong = inst.orc.check(rs)
	}
	n := all.add(rs, checked, wrong)
	if fixed != nil {
		fixed.add(rs, checked, wrong)
	}
	return opRecord{seconds: d, answers: n}
}

// setProcs fixes GOMAXPROCS, which is also the engine's worker count, at
// min(nproc, 4): load comes from one process with no more threads than CPUs.
func setProcs() int {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	return procs
}

// measure runs the full protocol for one workload: repeated cold set-ups,
// untimed warm-up, then a timed closed loop of one client that lasts at
// least `seconds` and at least workload.fixedOps ops. scale shrinks the op
// counts for the self-check (1 = the frozen counts).
func measure(w *workload, seed uint64, seconds float64, scale float64) (*measurement, error) {
	procs := setProcs()
	m := &measurement{workload: w, seed: seed, gomaxprocs: procs, workers: procs}

	minReps, minSecs := setupMinReps, setupMinSeconds
	if scale < 1 {
		minReps, minSecs = 1, 0
	}
	inst, setups, err := coldSetups(w, seed, m.workers, minReps, minSecs)
	if err != nil {
		return nil, err
	}
	m.setupSeconds = setups

	fixedOps := max(1, int(float64(w.fixedOps)*scale))
	var warm tally
	for i := 0; i < int(float64(w.warmup)*scale); i++ {
		step(inst, -1, &warm, nil)
	}

	m.records = make([]opRecord, 0, 1<<16)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; i < fixedOps || time.Since(start).Seconds() < seconds; i++ {
		fixed := &m.fixed
		if i >= fixedOps {
			fixed = nil
		}
		m.records = append(m.records, step(inst, i, &m.all, fixed))
	}
	m.wallSeconds = time.Since(start).Seconds()
	m.cpuSeconds = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs

	m.liveHeapBytes = retainedHeap(inst)
	m.peakRSSKB = peakRSSKB()
	return m, nil
}

// retainedHeap closes the instance and returns what it held: the heap with
// the engine, its session cache and the service still referenced, minus the
// heap once they are gone. Taking the difference leaves out the benchmark's
// own records and the oracle's mirror. Every reading follows two collections,
// because a sync.Pool's contents survive the first.
func retainedHeap(inst *instance) uint64 {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	orc := inst.orc
	inst.close()
	*inst = instance{}
	without := heap()
	runtime.KeepAlive(orc)
	return with - min(with, without)
}

// opMicros returns the op latencies in µs, ascending.
func (m *measurement) opMicros() []float64 {
	us := make([]float64, len(m.records))
	for i, r := range m.records {
		us[i] = r.seconds * 1e6
	}
	slices.Sort(us)
	return us
}

func (m *measurement) sliceRates() []float64 {
	secs := make([]float64, len(m.records))
	answers := make([]int, len(m.records))
	for i, r := range m.records {
		secs[i], answers[i] = r.seconds, r.answers
	}
	return sliceRates(secs, answers, rateSlices)
}
