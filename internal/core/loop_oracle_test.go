package core

import (
	"errors"
	"testing"
	"time"

	"sensoragg/internal/wire"
)

// The solo selection loop as batch.go ran it before every selection moved
// onto one Plane, verbatim below the marker: its entry point renamed
// oracleSelectRanksSeeded, and SelectStepper.WantTrueTop, which only this
// loop called, written out in place. TestSoloLoopOracle (loop_test.go)
// holds SelectRanksSeeded, a Plane of one, to it.

// --- verbatim from batch.go ---

func oracleSelectRanksSeeded(net Net, ranks []BatchRank, probeWidth int, seeds []SeedWindow) (BatchResult, error) {
	var res BatchResult
	if len(ranks) == 0 {
		return res, nil
	}
	st := NewSelectStepper(ranks, probeWidth)
	st.SeedHints(seeds)
	lo, hi, ok := net.MinMax(Linear)
	if !ok {
		return res, ErrEmpty
	}
	st.Bounds(lo, hi)

	// A width-1 sweep's probe and count live on the stack. A wider search
	// gets one backing array for its probe thresholds and their counts (+1
	// slot for the sweep-1 top probe): the driver's whole state is a
	// handful of allocations.
	width := st.Width()
	var one [2]uint64
	probes, counts := one[:0:1], one[1:1]
	var buf []uint64
	var preds []wire.Pred
	if width > 1 {
		buf = make([]uint64, 2*(width+1))
		probes = buf[: 0 : width+1]
		preds = make([]wire.Pred, 0, width+1)
	}

	for !st.Done() {
		probes = st.Propose(probes[:0])
		probes = sortDedupe(probes)
		top, trueTop := !st.Resolved(), !st.Resolved() && hi == ^uint64(0)
		if width == 1 {
			pred := wire.True() // the top probe: a width-1 stepper proposes none with it
			if !top {
				pred = wire.Less(probes[0])
			}
			counts = append(counts[:0], net.Count(Linear, pred))
		} else {
			if top && !trueTop {
				probes = append(probes, hi+1)
			}
			preds = preds[:0]
			for _, t := range probes {
				preds = append(preds, wire.Less(t))
			}
			if trueTop {
				preds = append(preds, wire.True())
			}
			counts = net.CountVec(Linear, preds, buf[width+1:width+1])
		}
		res.Sweeps++
		res.Probes += len(counts)
		if top {
			n := counts[len(counts)-1]
			if n == 0 {
				return res, ErrEmpty
			}
			if err := st.ResolveN(n); err != nil {
				return res, err
			}
		}
		st.Observe(probes, counts[:len(probes)])
		if res.Sweeps > MaxSelectSweeps {
			return res, ErrNoConverge
		}
	}
	res.Values = st.Values(make([]uint64, 0, len(ranks)))
	res.SeededSweeps = st.SeededSweeps()
	res.SeedHit = st.SeedHit()
	return res, nil
}

// --- end verbatim ---

// TestPlaneStopsOnSilentRound: a round in which every open search
// proposes nothing is ErrNoConverge at once, not a spin to MaxSelectSweeps
// or a read of an empty proposal — for a plane of one (width 1, where the
// old solo loop read probes[0]) and a plane of two searches and an
// aggregate. The stop hook, asked before every sweep, marks every open
// rank dup from the second round on, and a dup rank proposes nothing.
func TestPlaneStopsOnSilentRound(t *testing.T) {
	values := make([]uint64, 500)
	for i := range values {
		values[i] = uint64(i*7919) % 1000
	}
	for _, steppers := range [][]*SelectStepper{
		{NewSelectStepper([]BatchRank{{Median: true}}, 1)},
		{NewSelectStepper([]BatchRank{{Median: true}}, 4), nil, NewSelectStepper([]BatchRank{{K: 3}, {Phi: 0.9}}, 8)},
	} {
		var p Plane
		p.Stop = func() error {
			for _, st := range steppers {
				if st == nil {
					continue
				}
				for i := range st.ivs {
					st.ivs[i].dup = true
				}
			}
			return nil
		}
		start := time.Now()
		err := p.Drive(NewLocalNet(values, 1000), steppers)
		if !errors.Is(err, ErrNoConverge) || p.Sweeps != 1 {
			t.Errorf("%d steppers: %v after %d sweeps, want %v after 1", len(steppers), err, p.Sweeps, ErrNoConverge)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%d steppers: the guard took %v", len(steppers), el)
		}
	}
}
