package byz

import (
	"math"

	"sensoragg/internal/agg"
	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

// relayHeaderBits is the byz relay framing's per-frame header: the tier
// speaks its own tiny protocol between the root and the sector roots
// (opcode + domain). What follows the header — predicates, probe sets,
// values — is framed at agg's widths, and mostly the way agg frames it
// in-sector. Two upward relays are priced otherwise: a nested CountVec
// relay of k ≥ 2 counts costs γ(c₀)+Σγ(Δᵢ), where agg's chain codec sends
// γ(c₀)+6+(k−1)·w (agg's countBits), and a MultiAggregate relay carries a
// presence bit agg's fused codec lacks — 1 bit more for a non-empty
// sector, 1 bit against γ(0)+γ(0) = 2 for an empty one.
const relayHeaderBits = 4

// crossCheckSigmas is the deviation, in estimator standard errors, beyond
// which the sketch cross-check declares the trimmed count suspicious.
const crossCheckSigmas = 4

// crossCheckRelFloor is the minimum relative deviation the cross-check
// convicts on. The σ gate alone misfires on small rosters: when the
// population is near the register count m the LogLog estimator runs in
// its small-range correction regime, whose residual bias the 1.04/√m σ
// model does not cover, so an honest count can land several nominal σ
// out. Capacity drift — the attack this check exists for — moves the
// count by whole subtrees, so requiring a gross relative gap as well
// costs no detection power.
const crossCheckRelFloor = 0.25

// sector is one root-child subtree: the unit of trust isolation. Each
// sector aggregates over its own subview with a private agg.Net, relays
// the partial one hop to the root, and is individually accountable — its
// item capacity caps every claim it can make.
type sector struct {
	root  topology.NodeID
	items uint64 // active items in the sector: the cap on every count claim
	net   *agg.Net
	view  *spantree.TreeView
	// suspected marks a sector one of whose partials needed trimming.
	suspected bool
}

// Integrity is the per-answer integrity accounting of a robust run.
type Integrity struct {
	// Sectors is the number of root-child subtrees the query ran over.
	Sectors int
	// Suspected lists sector roots whose partials needed trimming (or the
	// whole roster when the sketch cross-check fired with no named
	// suspect), in ascending ID order.
	Suspected []topology.NodeID
	// Trims is the number of sector partials that violated a trim bound.
	Trims int
	// BoundItems is the integrity bound: the summed item capacity of the
	// suspected sectors. However those sectors lied, they cannot displace
	// a rank answer (median, order statistic, count) by more than this
	// many positions; 0 means every partial satisfied every bound.
	BoundItems uint64
	// CrossChecked reports whether the duplicate-insensitive sketch
	// cross-check ran; CrossDeviation is its deviation in standard errors.
	CrossChecked   bool
	CrossDeviation float64
}

// RobustNet is the trimmed sector-split aggregation plane: a drop-in
// core.Net (plus the Sum/Min/Max/Average/MultiAggregate extensions the
// query engine dispatches over) that runs every primitive once per sector
// and clamps each relayed partial against the sector's item capacity
// before merging. On an honest network the sector partials sum to exactly
// the global partials, so robust answers are value-identical to the
// non-robust engine; under lies, every violation marks its sector
// suspected and the answer ships with an integrity bound.
type RobustNet struct {
	nw      *netsim.Network
	view    *spantree.TreeView
	plan    *faults.Plan
	sectors []*sector
	// full is a whole-view net used only for the duplicate-insensitive
	// sketch cross-check and the approximate-protocol delegates; the
	// robust exact kinds never touch it.
	full *agg.Net

	trims    int
	crossRan bool
	crossDev float64

	tbuf, cbuf []uint64
}

// Option configures a RobustNet.
type Option func(*config)

type config struct{ sketchP int }

// WithSketchP sets the LogLog precision forwarded to the per-sector and
// cross-check nets (0 keeps the agg default).
func WithSketchP(p int) Option { return func(c *config) { c.sketchP = p } }

// NewRobustNet builds the sector-split plane over a (possibly healed,
// possibly quarantine-re-healed) view. The root's own items are folded in
// locally — the base station is the trusted querier of the model.
func NewRobustNet(nw *netsim.Network, view *spantree.TreeView, opts ...Option) *RobustNet {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	var aggOpts []agg.Option
	if cfg.sketchP != 0 {
		aggOpts = append(aggOpts, agg.WithSketchP(cfg.sketchP))
	}
	r := &RobustNet{
		nw:   nw,
		view: view,
		plan: nw.Faults,
		full: agg.NewNet(spantree.NewFastView(nw, view), aggOpts...),
	}
	for _, c := range view.Children(view.Root) {
		sub := spantree.SubtreeView(view, c)
		s := &sector{
			root: c,
			net:  agg.NewNet(spantree.NewFastView(nw, sub), aggOpts...),
			view: sub,
		}
		for _, u := range sub.Order {
			for _, it := range nw.Nodes[u].Items {
				if it.Active {
					s.items++
				}
			}
		}
		r.sectors = append(r.sectors, s)
	}
	return r
}

// Integrity snapshots the run's integrity accounting.
func (r *RobustNet) Integrity() Integrity {
	in := Integrity{
		Sectors:        len(r.sectors),
		Trims:          r.trims,
		CrossChecked:   r.crossRan,
		CrossDeviation: r.crossDev,
	}
	for _, s := range r.sectors {
		if s.suspected { // sectors follow view.Children(root): ascending ID order
			in.Suspected = append(in.Suspected, s.root)
			in.BoundItems += s.items
		}
	}
	return in
}

func (r *RobustNet) flag(s *sector) {
	r.trims++
	s.suspected = true
}

// maxDomain is the largest value any honest item can take in domain d —
// the trim bound on extrema and the per-item sum contribution.
func (r *RobustNet) maxDomain(d core.Domain) uint64 {
	if d == core.LogDomain {
		return core.Log2Floor(r.nw.MaxX)
	}
	return r.nw.MaxX
}

// chargeRelay prices one sector's relay exchange: the announce frame down
// to the sector root and the partial back up, one hop each way (sector
// roots are root children by construction).
func (r *RobustNet) chargeRelay(s *sector, down, up int) {
	r.nw.Meter.Charge(r.view.Root, s.root, down)
	r.nw.Meter.Charge(s.root, r.view.Root, up)
}

// relayLie returns the sector root's relay corruption of a scalar count or
// sum. In-sector sweeps exempt the subview root (the engine never corrupts
// a view root), so a Byzantine sector root lies here instead — in the
// relay hop the trusted root actually hears.
func (r *RobustNet) relayLie(s *sector, x uint64) uint64 {
	if r.plan != nil && r.plan.Byzantine(s.root) {
		return faults.CorruptValue(x, r.plan.LieWord(s.root))
	}
	return x
}

// --- core.Net ---

// NumNodes returns the full network size, like agg.Net does regardless of
// the executing view.
func (r *RobustNet) NumNodes() int { return r.nw.N() }

// MaxX returns the network-wide value bound.
func (r *RobustNet) MaxX() uint64 { return r.nw.MaxX }

// Reset reactivates every item.
func (r *RobustNet) Reset() { r.nw.ResetItems() }

// ApxSigma delegates to the whole-view estimator.
func (r *RobustNet) ApxSigma() float64 { return r.full.ApxSigma() }

// ApxAlpha delegates to the whole-view estimator.
func (r *RobustNet) ApxAlpha() float64 { return r.full.ApxAlpha() }

// ApxCountRep delegates to the whole-view sketch plane: the estimator
// folds hashed item keys, which the value-corruption adversary cannot
// steer, so the un-trimmed sweep is already duplicate-insensitive
// evidence (CrossCheck consumes it).
func (r *RobustNet) ApxCountRep(d core.Domain, pred wire.Pred, rep int) []float64 {
	return r.full.ApxCountRep(d, pred, rep)
}

// Zoom delegates to the whole-view net. The robust exact kinds never
// rescale; only the approximate-median family uses this, and it runs
// un-trimmed.
func (r *RobustNet) Zoom(muHat uint64) { r.full.Zoom(muHat) }

// Count runs COUNTP per sector, trims each relayed count against the
// sector's item capacity, and adds the root's local items. A TRUE
// predicate is a free audit: the honest answer is exactly the capacity,
// so any deviation — high or low — flags the sector and the capacity is
// used instead.
func (r *RobustNet) Count(d core.Domain, pred wire.Pred) uint64 {
	down := relayHeaderBits + pred.EncodedBits(r.full.ValueWidth(d))
	var total uint64
	for _, s := range r.sectors {
		c := r.relayLie(s, s.net.Count(d, pred))
		r.chargeRelay(s, down, bitio.GammaWidth(c))
		total += r.trimCount(s, c, pred)
	}
	return total + r.localCount(d, pred)
}

func (r *RobustNet) trimCount(s *sector, c uint64, pred wire.Pred) uint64 {
	if pred.Kind == wire.PredTrue {
		if c != s.items {
			r.flag(s)
			return s.items
		}
		return c
	}
	if c > s.items {
		r.flag(s)
		return s.items
	}
	return c
}

func (r *RobustNet) localCount(d core.Domain, pred wire.Pred) uint64 {
	var c uint64
	for _, it := range r.nw.Nodes[r.view.Root].Items {
		if it.Active && pred.Eval(agg.DomainValue(it, d)) {
			c++
		}
	}
	return c
}

// Sum runs SUM per sector, clamping each relayed sum to
// capacity·maxvalue, and adds the root's local items.
func (r *RobustNet) Sum(d core.Domain, pred wire.Pred) uint64 {
	down := relayHeaderBits + pred.EncodedBits(r.full.ValueWidth(d))
	maxD := r.maxDomain(d)
	var total uint64
	for _, s := range r.sectors {
		x := r.relayLie(s, s.net.Sum(d, pred))
		r.chargeRelay(s, down, bitio.GammaWidth(x))
		total += r.trimSum(s, x, maxD)
	}
	root := r.view.Root
	for _, it := range r.nw.Nodes[root].Items {
		if it.Active && pred.Eval(agg.DomainValue(it, d)) {
			total += agg.DomainValue(it, d)
		}
	}
	return total
}

func (r *RobustNet) trimSum(s *sector, x, maxD uint64) uint64 {
	cap := s.items * maxD
	if maxD != 0 && s.items > math.MaxUint64/maxD {
		cap = math.MaxUint64 // capacity bound not representable: no clamp possible
	}
	if x > cap {
		r.flag(s)
		return cap
	}
	return x
}

// MinMax merges the per-sector extrema with the root's local items. A
// Byzantine sector root lies within the domain (a wild extremum outside
// [0, maxvalue] is trimmed away and flags the sector).
func (r *RobustNet) MinMax(d core.Domain) (lo, hi uint64, ok bool) {
	maxD := r.maxDomain(d)
	for _, s := range r.sectors {
		slo, shi, sok := s.net.MinMax(d)
		up := 1
		if sok {
			if r.plan != nil && r.plan.Byzantine(s.root) {
				slo, shi = corruptMinMax(slo, shi, r.plan.LieWord(s.root))
			}
			up += 2 * r.full.ValueWidth(d)
		}
		r.chargeRelay(s, relayHeaderBits, up)
		if !sok {
			continue
		}
		if slo > shi || shi > maxD {
			r.flag(s)
			if slo > shi {
				continue // incoherent claim: trimmed out entirely
			}
			shi = maxD
			if slo > maxD {
				slo = maxD
			}
		}
		if !ok {
			lo, hi, ok = slo, shi, true
		} else {
			if slo < lo {
				lo = slo
			}
			if shi > hi {
				hi = shi
			}
		}
	}
	for _, it := range r.nw.Nodes[r.view.Root].Items {
		if !it.Active {
			continue
		}
		v := agg.DomainValue(it, d)
		if !ok {
			lo, hi, ok = v, v, true
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi, ok
}

// corruptMinMax is the relay-hop lie on an extrema pair: the sector root
// reports a wrong minimum, kept inside the domain (wire-legal framing is
// the liar's own interest — an out-of-width value exposes it instantly).
func corruptMinMax(lo, hi, lie uint64) (uint64, uint64) {
	span := hi + 1
	if span == 0 { // hi == MaxUint64: degenerate, lie over the full word
		span = math.MaxUint64
	}
	l2 := lie % span
	if l2 == lo {
		l2 = (l2 + 1) % span
	}
	return l2, hi
}

// Min mirrors agg.Net.Min over the trimmed plane.
func (r *RobustNet) Min(d core.Domain) (uint64, bool) {
	lo, _, ok := r.MinMax(d)
	return lo, ok
}

// Max mirrors agg.Net.Max over the trimmed plane.
func (r *RobustNet) Max(d core.Domain) (uint64, bool) {
	_, hi, ok := r.MinMax(d)
	return hi, ok
}

// Average mirrors agg.Net.Average: a trimmed SUM sweep over a trimmed
// COUNT sweep.
func (r *RobustNet) Average(d core.Domain, pred wire.Pred) (float64, bool) {
	sum := r.Sum(d, pred)
	count := r.Count(d, pred)
	if count == 0 {
		return 0, false
	}
	return float64(sum) / float64(count), true
}

// CountVec runs the batched probe sweep per sector and trims every slot:
// counts are capped at the sector capacity, a nested chain is forced
// monotone, and a trailing TRUE slot must equal the capacity exactly. The
// counts are appended into dst[:0].
func (r *RobustNet) CountVec(d core.Domain, preds []wire.Pred, dst []uint64) []uint64 {
	k := len(preds)
	if k == 0 {
		return dst[:0]
	}
	nested := agg.NestedPreds(preds)
	down := relayHeaderBits + agg.ProbeSetBits(preds, r.full.ValueWidth(d))
	if cap(r.cbuf) < k {
		r.cbuf = make([]uint64, k)
	}
	acc := r.cbuf[:k]
	for i := range acc {
		acc[i] = 0
	}
	for _, s := range r.sectors {
		r.tbuf = s.net.CountVec(d, preds, r.tbuf)
		p := r.tbuf
		if r.plan != nil && r.plan.Byzantine(s.root) {
			corruptVec(p, nested, r.plan.LieWord(s.root))
		}
		up := 0
		for i, c := range p {
			if nested && i > 0 {
				up += bitio.GammaWidth(c - min(c, p[i-1]))
			} else {
				up += bitio.GammaWidth(c)
			}
		}
		r.chargeRelay(s, down, up)
		r.trimVec(s, p, preds, nested)
		for i, c := range p {
			acc[i] += c
		}
	}
	root := r.view.Root
	for _, it := range r.nw.Nodes[root].Items {
		if !it.Active {
			continue
		}
		v := agg.DomainValue(it, d)
		for i, pd := range preds {
			if pd.Eval(v) {
				acc[i]++
			}
		}
	}
	return append(dst[:0], acc...)
}

// trimVec clamps one sector's probe vector in place.
func (r *RobustNet) trimVec(s *sector, p []uint64, preds []wire.Pred, nested bool) {
	bad := false
	for i := range p {
		if p[i] > s.items {
			p[i] = s.items
			bad = true
		}
		if nested && i > 0 && p[i] < p[i-1] {
			p[i] = p[i-1] // a ⊆-chain cannot shrink upward
			bad = true
		}
	}
	if last := len(preds) - 1; preds[last].Kind == wire.PredTrue && p[last] != s.items {
		p[last] = s.items
		bad = true
	}
	if bad {
		r.flag(s)
	}
}

// MultiAggregate runs the fused sweep per sector and trims the tuple:
// count against capacity (exactly, for a TRUE predicate), sum against
// capacity·maxvalue, extrema against the domain.
func (r *RobustNet) MultiAggregate(d core.Domain, pred wire.Pred) (count, sum, lo, hi uint64, ok bool) {
	vw := r.full.ValueWidth(d)
	down := relayHeaderBits + 1 + pred.EncodedBits(vw)
	maxD := r.maxDomain(d)
	for _, s := range r.sectors {
		sc, ss, slo, shi, sok := s.net.MultiAggregate(d, pred)
		up := 1
		if sok {
			if r.plan != nil && r.plan.Byzantine(s.root) {
				lie := r.plan.LieWord(s.root)
				sc = faults.CorruptValue(sc, lie)
				if sc == 0 {
					sc = 1 // a non-empty sector cannot claim emptiness credibly
				}
				ss = faults.CorruptValue(ss, lie^0x5851f42d4c957f2d)
			}
			up += bitio.GammaWidth(sc) + bitio.GammaWidth(ss) + 2*vw
		}
		r.chargeRelay(s, down, up)
		if !sok {
			continue
		}
		sc = r.trimCount(s, sc, pred)
		ss = r.trimSum(s, ss, maxD)
		if slo > shi || shi > maxD {
			r.flag(s)
			if slo > shi {
				slo, shi = shi, slo
			}
			if shi > maxD {
				shi = maxD
			}
			if slo > maxD {
				slo = maxD
			}
		}
		count += sc
		sum += ss
		if !ok {
			lo, hi, ok = slo, shi, true
		} else {
			if slo < lo {
				lo = slo
			}
			if shi > hi {
				hi = shi
			}
		}
	}
	for _, it := range r.nw.Nodes[r.view.Root].Items {
		if !it.Active || !pred.Eval(agg.DomainValue(it, d)) {
			continue
		}
		v := agg.DomainValue(it, d)
		count++
		sum += v
		if !ok {
			lo, hi, ok = v, v, true
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if count == 0 {
		return 0, 0, 0, 0, false
	}
	return count, sum, lo, hi, ok
}

// CrossCheck compares the trimmed exact count against the whole-view
// duplicate-insensitive sketch estimate. The LogLog plane folds hashed
// item keys, which a value-corrupting adversary cannot deflate, so a
// deviation beyond crossCheckSigmas standard errors means lies survived
// every trim bound — with no individually named suspect, every sector
// becomes suspected (the integrity bound then covers the whole relay
// roster, the honest worst case). Returns the deviation in σ units.
func (r *RobustNet) CrossCheck() (dev float64, suspicious bool) {
	exact := r.Count(core.Linear, wire.True())
	reps := r.ApxCountRep(core.Linear, wire.True(), 3)
	var est float64
	for _, e := range reps {
		est += e
	}
	est /= float64(len(reps))
	r.crossRan = true
	if exact == 0 {
		r.crossDev = 0
		return 0, false
	}
	se := r.full.ApxSigma() / math.Sqrt(float64(len(reps)))
	rel := math.Abs(est/float64(exact) - 1)
	dev = rel / se
	r.crossDev = dev
	if dev > crossCheckSigmas && rel > crossCheckRelFloor {
		if r.trims == 0 { // no sector was ever flagged
			for _, s := range r.sectors {
				r.flag(s)
			}
		}
		return dev, true
	}
	return dev, false
}

// corruptVec is the relay-hop lie on a probe vector: a uniform shift for
// nested chains (keeping the claim monotone, the hardest lie to trim),
// per-slot corruption otherwise.
func corruptVec(p []uint64, nested bool, lie uint64) {
	if len(p) == 0 {
		return
	}
	if nested {
		d := faults.CorruptValue(p[0], lie) - p[0]
		for i := range p {
			p[i] += d
		}
		return
	}
	for i := range p {
		p[i] = faults.CorruptValue(p[i], lie+uint64(i)*0x9e3779b97f4a7c15)
	}
}
