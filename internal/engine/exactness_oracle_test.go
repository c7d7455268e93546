package engine

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/spantree"
	"sensoragg/internal/workload"
)

// The exactness oracle: the paper's promise that every exact selection
// equals sorted ground truth over the survivors, under every fault plan,
// at every probe width, with or without seed windows, solo or fused —
// checked over deployments generated from one seed each, against a truth
// computed apart from the engine (a fresh fork, its plan fired and healed
// the way the retry loop heals, the survivors sorted).

var (
	exactTopologies = []string{"grid", "rgg", "ring", "star", "btree", "line"}
	exactSizes      = []int{16, 64, 100, 144, 256}
	exactWorkloads  = []workload.Kind{workload.Uniform, workload.Zipf, workload.Gaussian, workload.Exponential,
		workload.Bimodal, workload.Constant, workload.FewDistinct, workload.Drift}
	exactWidths = []int{1, 2, 3, 4, 8, 16}
)

// exactnessCase generates one deployment and a batch of one to four
// selection jobs on it from seed.
func exactnessCase(seed uint64) []Job {
	rng := rand.New(rand.NewPCG(seed, 0x0acc1e))
	spec := Spec{
		Topology: exactTopologies[rng.IntN(len(exactTopologies))],
		N:        exactSizes[rng.IntN(len(exactSizes))],
		Workload: string(exactWorkloads[rng.IntN(len(exactWorkloads))]),
		MaxX:     []uint64{0, 7, 1 << 40}[rng.IntN(3)],
		Seed:     1 + seed%97,
	}
	switch rng.IntN(3) {
	case 1:
		spec.Faults = faults.Spec{Crash: 0.05, LinkFail: 0.05}
	case 2:
		spec.Faults = faults.Spec{MidAt: 2 + rng.IntN(3), MidCrash: 0.1, MidLinkFail: 0.03}
		spec.Retry = Retry{Budget: 2}
	}
	maxX := spec.Normalize().MaxX
	jobs := make([]Job, 1+rng.IntN(4))
	for i := range jobs {
		var q Query
		ranks := 1
		switch rng.IntN(4) {
		case 0:
			q = Query{Kind: KindMedian}
		case 1:
			q = Query{Kind: KindQuantile, Phi: 1 - rng.Float64()}
		case 2:
			q = Query{Kind: KindQuantiles, Phis: make([]float64, 1+rng.IntN(4))}
			for j := range q.Phis {
				q.Phis[j] = 1 - rng.Float64()
			}
			ranks = len(q.Phis)
		default:
			q = Query{Kind: KindOrderStat, K: 1 + rng.Uint64N(uint64(spec.N/3))}
		}
		q.ProbeWidth = exactWidths[rng.IntN(len(exactWidths))]
		if rng.IntN(2) == 0 {
			// Windows anywhere in the domain: some hold the answer, some
			// are stale. They are hints, never bounds.
			q.SeedWindows = make([]core.SeedWindow, ranks)
			for j := range q.SeedWindows {
				c, d := rng.Uint64N(maxX+1), rng.Uint64N(maxX/8+2)
				q.SeedWindows[j] = core.SeedWindow{Lo: c - min(c, d), Hi: c + d}
			}
		}
		jobs[i] = Job{ID: fmt.Sprint(i), Spec: spec, Query: q}
	}
	return jobs
}

// oracleSurvivors is the population an exact answer over spec selects
// from, derived without the engine: every item without faults, else the
// items the healed tree reaches, with the phased strike fired first when
// fired is set.
func oracleSurvivors(t *testing.T, spec Spec, fired bool) []uint64 {
	t.Helper()
	spec = spec.Normalize()
	nw, err := NewSession().Instantiate(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Release()
	if spec.Faults == (faults.Spec{}) {
		return nw.AllItems()
	}
	for fired && !nw.Faults.PhaseFired() {
		nw.Faults.Tick()
	}
	hr, _, err := spantree.HealRerooted(nw)
	if err != nil {
		t.Fatal(err)
	}
	return survivingItems(nw, hr.View)
}

// robustEvery is the share of generated cases whose jobs also run robust,
// on the byz tier's trimmed plane with no liars.
const robustEvery = 4

// TestExactnessOracle submits each generated batch solo and under
// WithFusion and holds every answer to the sorted truth over the survivors
// — the post-strike survivors when a phased strike forced a retry — and
// the fused answers to the solo ones. Every robustEvery-th case runs its
// jobs robust too (checkRobustLeg).
func TestExactnessOracle(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 300
	}
	var answers, retried, rankErrs, robust int
	e := New(Options{Workers: 2})
	ctx := context.Background()
	for c := uint64(0); c < uint64(cases); c++ {
		jobs := exactnessCase(c)
		spec := jobs[0].Spec
		solo := e.Submit(ctx, jobs)
		fused := e.Submit(ctx, jobs, WithFusion())
		pops := map[bool][]uint64{}
		for i, job := range jobs {
			for path, r := range map[string]Result{"solo": solo[i], "fused": fused[i]} {
				where := fmt.Sprintf("case %d %s %s job %d (%s, width %d, windows %v)", c, path, spec, i, job.Query, job.Query.ProbeWidth, job.Query.SeedWindows)
				fired := r.Retries > 0
				for _, f := range []bool{fired, r.Failed() && spec.Faults.MidAt > 0} {
					if pops[f] == nil {
						pops[f] = oracleSurvivors(t, spec, f)
					}
				}
				if r.Failed() && job.Query.K > 0 {
					// A partition can leave fewer survivors than the rank; a
					// failed run reports no retries, so the strike may have
					// fired.
					n := uint64(len(pops[fired]))
					if job.Query.K <= n {
						n = uint64(len(pops[true]))
					}
					rankErrs++
					if want := fmt.Sprintf("core: rank %d exceeds N=%d", job.Query.K, n); r.Error != want {
						t.Fatalf("%s: error %q, want %q", where, r.Error, want)
					}
					continue
				}
				if r.Failed() || r.Degraded {
					t.Fatalf("%s: error %q, degraded %v", where, r.Error, r.Degraded)
				}
				want, wants := refTruths(job.Query.WithDefaults(), pops[fired])
				if r.Value != want || (wants != nil && !slices.Equal(r.Values, wants)) {
					t.Fatalf("%s: answered %g %v, sorted truth over %d survivors %g %v", where, r.Value, r.Values, len(pops[fired]), want, wants)
				}
				if !r.Exact || !r.TruthKnown || r.Truth != want {
					t.Fatalf("%s: exact %v, truth %g (known %v), oracle truth %g", where, r.Exact, r.Truth, r.TruthKnown, want)
				}
				answers++
				if fired {
					retried++
				}
			}
			// A phased strike can land inside one schedule and after the
			// other's last sweep; fused and solo then answer over different
			// survivors. Otherwise they answer alike.
			s, f := solo[i], fused[i]
			comparable := spec.Faults.MidAt == 0 || !s.Failed() && !f.Failed() && (s.Retries > 0) == (f.Retries > 0)
			if comparable && (s.Error != f.Error || s.Value != f.Value || !slices.Equal(s.Values, f.Values)) {
				t.Fatalf("case %d %s job %d: solo %g %v %q, fused %g %v %q", c, spec, i, s.Value, s.Values, s.Error, f.Value, f.Values, f.Error)
			}
		}
		if c%robustEvery == 0 {
			robust += checkRobustLeg(t, e, c, jobs, solo, pops[false])
		}
	}
	t.Logf("%d cases: %d exact answers (%d after a retry, %d robust), %d rank errors past a partition", cases, answers, retried, robust, rankErrs)
}

// checkRobustLeg submits case c's jobs again with Query.Robust set. With no
// liars the trimmed plane answers as the plain one: every robust answer
// equals the plain solo one (or fails with its error) and the sorted truth
// over survivors, the population pop. A phased plan fails every robust job
// with the robust-phased error. It returns the exact answers it checked.
func checkRobustLeg(t *testing.T, e *Engine, c uint64, jobs []Job, plain []Result, pop []uint64) (answers int) {
	t.Helper()
	robust := slices.Clone(jobs)
	for i := range robust {
		robust[i].Query.Robust = true
	}
	spec := jobs[0].Spec
	for i, r := range e.Submit(context.Background(), robust) {
		q := jobs[i].Query
		where := fmt.Sprintf("case %d robust %s job %d (%s, width %d, windows %v)", c, spec, i, q, q.ProbeWidth, q.SeedWindows)
		if spec.Faults.MidAt > 0 {
			const want = "engine: robust mode does not support phased fault plans (the byz tier has no mid-flight retry story)"
			if r.Error != want {
				t.Fatalf("%s: error %q, want %q", where, r.Error, want)
			}
			continue
		}
		p := plain[i]
		if r.Error != p.Error || r.Value != p.Value || !slices.Equal(r.Values, p.Values) {
			t.Fatalf("%s: robust %g %v %q, plain %g %v %q", where, r.Value, r.Values, r.Error, p.Value, p.Values, p.Error)
		}
		if r.Failed() {
			continue
		}
		want, wants := refTruths(q.WithDefaults(), pop)
		if !r.Robust || !r.Exact || r.Value != want || (wants != nil && !slices.Equal(r.Values, wants)) {
			t.Fatalf("%s: robust %v exact %v, answered %g %v, sorted truth over %d survivors %g %v", where, r.Robust, r.Exact, r.Value, r.Values, len(pop), want, wants)
		}
		answers++
	}
	return answers
}
