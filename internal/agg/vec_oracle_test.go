package agg

// Reference oracle for the wire-native partial form: the countVecCombiner
// codec exactly as it was while a nested partial was kept as *cumulative*
// counts — LocalVec's step vector, the subtract-on-encode appendCounts and
// chainDeltaWidth, the prefix-summing decodeCounts, the uniform-shift
// CorruptVec and the branching chainFirstMatch — kept verbatim apart from
// the receiver's name. The identity tests below hold the histogram form to
// it: same bytes on every edge, same values at the root.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/faults"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/topology"
	"sensoragg/internal/wire"
)

type cumCountVec struct {
	domain  core.Domain
	preds   []wire.Pred
	nested  bool
	withSum bool
	chain   []uint64
}

func (c *cumCountVec) LocalVec(n *netsim.Node, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	if c.withSum {
		var sum uint64
		for _, it := range n.Items {
			if it.Active {
				sum += domainValue(it, c.domain)
			}
		}
		dst[len(c.preds)] = sum
		dst = dst[:len(c.preds)]
	}
	if c.nested {
		// Chain membership is monotone: item v matches probes
		// [firstMatch, k). The dominant shape is one reading per node, so
		// the single-item partial is written directly as a 0/1 step
		// vector; multi-item nodes bucket by first match and prefix-sum.
		if len(n.Items) == 1 {
			it := n.Items[0]
			if !it.Active {
				return
			}
			lo := c.chainFirstMatch(domainValue(it, c.domain))
			for i := lo; i < len(dst); i++ {
				dst[i] = 1
			}
			return
		}
		for _, it := range n.Items {
			if !it.Active {
				continue
			}
			lo := c.chainFirstMatch(domainValue(it, c.domain))
			if lo < len(dst) {
				dst[lo]++
			}
		}
		for i := 1; i < len(dst); i++ {
			dst[i] += dst[i-1]
		}
		return
	}
	for _, it := range n.Items {
		if !it.Active {
			continue
		}
		v := domainValue(it, c.domain)
		for i, p := range c.preds {
			if p.Eval(v) {
				dst[i]++
			}
		}
	}
}

// chainFirstMatch returns the first chain index whose probe matches v —
// the first probe the item counts toward. Less slots match v < threshold;
// a trailing TRUE (sentinel 2⁶⁴−1, only ever the final slot) matches
// everything, so a value of exactly 2⁶⁴−1 — which no strict-less
// comparison admits — still lands on it. The predicate kind, not the
// sentinel value, decides: a genuine Less(2⁶⁴−1) probe must not match it.
func (c *cumCountVec) chainFirstMatch(v uint64) int {
	chain := c.chain
	lo, hi := 0, len(chain)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v < chain[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(chain) && v == ^uint64(0) && len(c.preds) > 0 && c.preds[len(c.preds)-1].Kind == wire.PredTrue {
		return len(c.preds) - 1
	}
	return lo
}

func (c *cumCountVec) MergeVec(acc, src []uint64) {
	for i, v := range src {
		acc[i] += v
	}
}

func (c *cumCountVec) AppendVec(w *bitio.Writer, p []uint64) {
	if c.withSum {
		// The monotone delta packing covers the count part only; the sum
		// rider is gamma-coded after it (it is additive, not monotone in
		// the chain).
		c.appendCounts(w, p[:len(c.preds)])
		w.WriteGamma(p[len(c.preds)])
		return
	}
	c.appendCounts(w, p)
}

// appendCounts encodes the count part of a partial vector.
func (c *cumCountVec) appendCounts(w *bitio.Writer, p []uint64) {
	if !c.nested {
		for _, v := range p {
			w.WriteGamma(v)
		}
		return
	}
	w.WriteGamma(p[0])
	if len(p) == 1 {
		return
	}
	// Shared fixed width for the deltas (stored as width−1 in 6 bits, so
	// widths 1..64 are representable), then the deltas word-packed
	// MSB-first: one WriteBits call covers as many slots as fit 64 bits.
	wmax := cumDeltaWidth(p)
	w.WriteBits(uint64(wmax-1), 6)
	for i := 1; i < len(p); {
		m := 64 / wmax
		if m > len(p)-i {
			m = len(p) - i
		}
		var word uint64
		for j := 0; j < m; j++ {
			word = word<<uint(wmax) | (p[i+j] - p[i+j-1])
		}
		w.WriteBits(word, m*wmax)
		i += m
	}
}

// chainDeltaWidth is the shared fixed width of a monotone vector's
// adjacent deltas — the single definition AppendVec and VecBits both
// derive from, so the arithmetic charge of the direct path can never
// drift from the emitted encoding. The widest delta is as wide as the OR of
// all of them, so the loop is a subtract and an OR per slot.
func cumDeltaWidth(p []uint64) int {
	var or uint64
	for i := 1; i < len(p); i++ {
		or |= p[i] - p[i-1]
	}
	return bitio.WidthOf(or)
}

func (c *cumCountVec) VecBits(p []uint64) int {
	if c.withSum {
		return c.countBits(p[:len(c.preds)]) + bitio.GammaWidth(p[len(c.preds)])
	}
	return c.countBits(p)
}

// countBits is the encoded length of the count part, the arithmetic twin
// of appendCounts.
func (c *cumCountVec) countBits(p []uint64) int {
	if !c.nested {
		bits := 0
		for _, v := range p {
			bits += bitio.GammaWidth(v)
		}
		return bits
	}
	bits := bitio.GammaWidth(p[0])
	if len(p) == 1 {
		return bits
	}
	return bits + 6 + (len(p)-1)*cumDeltaWidth(p)
}

func (c *cumCountVec) DecodeVec(pl wire.Payload, dst []uint64) error {
	r := pl.Reader()
	if c.withSum {
		if err := c.decodeCounts(r, dst[:len(c.preds)]); err != nil {
			return err
		}
		sum, err := r.ReadGamma()
		if err != nil {
			return fmt.Errorf("agg: countvec sum rider: %w", err)
		}
		dst[len(c.preds)] = sum
		return nil
	}
	return c.decodeCounts(r, dst)
}

// decodeCounts parses the count part encoded by appendCounts.
func (c *cumCountVec) decodeCounts(r *bitio.Reader, dst []uint64) error {
	if !c.nested {
		for i := range dst {
			v, err := r.ReadGamma()
			if err != nil {
				return fmt.Errorf("agg: countvec slot %d: %w", i, err)
			}
			dst[i] = v
		}
		return nil
	}
	c0, err := r.ReadGamma()
	if err != nil {
		return fmt.Errorf("agg: countvec base count: %w", err)
	}
	dst[0] = c0
	if len(dst) == 1 {
		return nil
	}
	wf, err := r.ReadBits(6)
	if err != nil {
		return fmt.Errorf("agg: countvec delta width: %w", err)
	}
	wmax := int(wf) + 1
	mask := uint64(1)<<uint(wmax) - 1
	if wmax == 64 {
		mask = ^uint64(0)
	}
	for i := 1; i < len(dst); {
		m := 64 / wmax
		if m > len(dst)-i {
			m = len(dst) - i
		}
		word, err := r.ReadBits(m * wmax)
		if err != nil {
			return fmt.Errorf("agg: countvec deltas: %w", err)
		}
		for j := m - 1; j >= 0; j-- {
			dst[i+j] = word & mask
			word >>= uint(wmax)
		}
		i += m
	}
	for i := 1; i < len(dst); i++ {
		dst[i] += dst[i-1]
	}
	return nil
}

// CorruptVec (spantree.ByzVecCombiner) maps a lie word into the probe
// plane's wire domain. A nested ⊆-chain vector must stay monotone
// nondecreasing or the delta packing breaks, so the lie is one uniform
// additive shift of every count slot: deltas are untouched, and a
// downward shift is bounded by the smallest count so no slot underflows.
// Non-nested slots are gamma-coded independently and corrupted per slot.
// The sum rider (additive, gamma-coded after the counts) lies separately.
func (c *cumCountVec) CorruptVec(p []uint64, lie uint64) {
	k := len(c.preds)
	if c.nested {
		d := faults.CorruptValue(p[0], lie) - p[0]
		for i := 0; i < k; i++ {
			p[i] += d
		}
	} else {
		for i := 0; i < k; i++ {
			p[i] = faults.CorruptValue(p[i], lie+uint64(i)*0x9e3779b97f4a7c15)
		}
	}
	if c.withSum {
		p[k] = faults.CorruptValue(p[k], lie^0x5851f42d4c957f2d)
	}
}
func (c *cumCountVec) VecWidth() int {
	if c.withSum {
		return len(c.preds) + 1
	}
	return len(c.preds)
}

func (c *cumCountVec) FoldVec(n *netsim.Node, dst, kids []uint64) int {
	c.LocalVec(n, dst)
	for k := len(dst); len(kids) > 0; kids = kids[k:] {
		c.MergeVec(dst, kids[:k])
	}
	return c.VecBits(dst)
}

func (c *cumCountVec) VecResult(p []uint64) any { return p }

func (c *cumCountVec) Local(n *netsim.Node) any {
	dst := make([]uint64, c.VecWidth())
	c.LocalVec(n, dst)
	return dst
}

func (c *cumCountVec) Merge(acc, child any) any {
	c.MergeVec(acc.([]uint64), child.([]uint64))
	return acc
}

func (c *cumCountVec) Encode(p any) wire.Payload {
	w := bitio.NewWriter(64)
	c.AppendVec(w, p.([]uint64))
	return wire.FromWriter(w)
}

func (c *cumCountVec) Decode(pl wire.Payload) (any, error) {
	dst := make([]uint64, c.VecWidth())
	return dst, c.DecodeVec(pl, dst)
}

var _ spantree.ByzVecCombiner = (*cumCountVec)(nil)

// --- the generated identity suite ---

// cumulated returns the cumulative-count form of a nested histogram-form
// partial: the first k slots prefix-summed, the sum rider as it is.
func cumulated(p []uint64, k int) []uint64 {
	q := slices.Clone(p)
	for i := 1; i < k; i++ {
		q[i] += q[i-1]
	}
	return q
}

// oracleChain generates a ⊆-chain of k probes: ascending Less thresholds —
// over a small domain, so items land in every bucket, or over the full
// uint64 range — optionally topped by TRUE.
func oracleChain(rng *rand.Rand, k int, trueTop, full bool) []wire.Pred {
	ts := make([]uint64, k)
	for i := range ts {
		if full {
			ts[i] = rng.Uint64()
		} else {
			ts[i] = rng.Uint64N(1200)
		}
	}
	slices.Sort(ts)
	if full && rng.IntN(2) == 0 {
		ts[k-1] = ^uint64(0) // a genuine Less(2⁶⁴−1) as the last probe
	}
	preds := make([]wire.Pred, k)
	for i, t := range ts {
		preds[i] = wire.Less(t)
	}
	if trueTop {
		preds[k-1] = wire.True()
	}
	return preds
}

// oracleNode generates a node with 0, 1 or several items: readings across
// and beyond the small threshold domain, the top value 2⁶⁴−1, full-range
// words, and inactive items.
func oracleNode(rng *rand.Rand) *netsim.Node {
	items := make([]netsim.Item, []int{0, 1, 1, 1, 2, 5}[rng.IntN(6)])
	for i := range items {
		switch rng.IntN(8) {
		case 0:
			items[i].Cur = ^uint64(0)
		case 1:
			items[i].Cur = rng.Uint64()
		default:
			items[i].Cur = rng.Uint64N(1300)
		}
		items[i].Active = rng.IntN(5) != 0
	}
	return &netsim.Node{Items: items}
}

// oracleKid generates a child's histogram-form partial of width k (+ sum
// rider): small buckets like a real subtree's, or buckets of every
// magnitude up to the full word. Slot 0 and the rider are gamma-coded, so
// they stay far enough below 2⁶⁴−1 that a handful of merges cannot reach it.
func oracleKid(rng *rand.Rand, dst []uint64, k int) {
	big := rng.IntN(3) == 0
	for i := range dst {
		dst[i] = rng.Uint64N(40)
		if big {
			dst[i] = rng.Uint64() >> rng.UintN(64)
		}
	}
	dst[0] >>= 4
	if len(dst) > k {
		dst[k] >>= 4
	}
}

// TestHistogramFormMatchesCumulativeOracle holds every face of the
// histogram-form codec to the cumulative-form oracle over generated chains
// × nodes × child sets × lie words.
func TestHistogramFormMatchesCumulativeOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0xc0de))
	encode := func(c interface {
		AppendVec(*bitio.Writer, []uint64)
	}, p []uint64) *bitio.Writer {
		w := bitio.NewWriter(64)
		c.AppendVec(w, p)
		return w
	}
	for _, k := range []int{1, 2, 8, 16, 17, 48, 64} {
		for variant := 0; variant < 16; variant++ {
			trueTop, full := variant&1 != 0, variant&2 != 0
			withSum, logDomain := variant&4 != 0, variant&8 != 0
			domain := core.Linear
			if logDomain {
				domain = core.LogDomain
			}
			for round := 0; round < 40; round++ {
				preds := oracleChain(rng, k, trueTop, full)
				if !nestedPreds(preds) {
					t.Fatalf("generated chain not nested: %v", preds)
				}
				hist := &countVecCombiner{domain: domain, preds: preds, nested: true, withSum: withSum}
				hist.chain = buildChain(preds, nil)
				cum := &cumCountVec{domain: domain, preds: preds, nested: true, withSum: withSum, chain: hist.chain}
				width := hist.VecWidth()
				where := fmt.Sprintf("k=%d true=%v full=%v sum=%v log=%v round %d", k, trueTop, full, withSum, logDomain, round)

				node := oracleNode(rng)
				nkids := rng.IntN(5)
				kids := make([]uint64, nkids*width)
				for j := 0; j < nkids; j++ {
					oracleKid(rng, kids[j*width:(j+1)*width], k)
				}

				// The node's own partial: histogram prefix-sums to the step vector.
				local, cumLocal := make([]uint64, width), make([]uint64, width)
				hist.LocalVec(node, local)
				cum.LocalVec(node, cumLocal)
				if got := cumulated(local, k); !slices.Equal(got, cumLocal) {
					t.Fatalf("%s: LocalVec %v prefix-sums to %v, oracle %v", where, local, got, cumLocal)
				}

				// The fold is local, merge per child, bits — and its
				// cumulative form is what the oracle folds from the
				// children's cumulative forms.
				want := slices.Clone(local)
				q := slices.Clone(cumLocal)
				for j := 0; j < nkids; j++ {
					kid := kids[j*width : (j+1)*width]
					hist.MergeVec(want, kid)
					cum.MergeVec(q, cumulated(kid, k))
				}
				if withSum && want[k] == ^uint64(0) {
					continue // outside the gamma domain: both codecs refuse it
				}
				p := make([]uint64, width)
				for i := range p {
					p[i] = rng.Uint64() // stale ring contents
				}
				bits := hist.FoldVec(node, p, kids)
				if !slices.Equal(p, want) || bits != hist.VecBits(want) {
					t.Fatalf("%s: FoldVec gave %v (%d bits), local+merge+bits %v (%d bits)", where, p, bits, want, hist.VecBits(want))
				}
				if got := cumulated(p, k); !slices.Equal(got, q) {
					t.Fatalf("%s: folded partial prefix-sums to %v, oracle %v", where, got, q)
				}

				// Same bytes on the wire, priced the same, decoded back.
				check := func(what string, p, q []uint64) {
					t.Helper()
					w, cumW := encode(hist, p), encode(cum, q)
					if w.Len() != cumW.Len() || !slices.Equal(w.Bytes(), cumW.Bytes()) {
						t.Fatalf("%s: %s: AppendVec(%v) wrote %d bits %x, oracle AppendVec(%v) %d bits %x",
							where, what, p, w.Len(), w.Bytes(), q, cumW.Len(), cumW.Bytes())
					}
					pl := wire.Borrowed(w)
					if hist.VecBits(p) != pl.Bits() || cum.VecBits(q) != pl.Bits() {
						t.Fatalf("%s: %s: VecBits %d, oracle %d, written %d", where, what, hist.VecBits(p), cum.VecBits(q), pl.Bits())
					}
					back, cumBack := make([]uint64, width), make([]uint64, width)
					if err := hist.DecodeVec(pl, back); err != nil {
						t.Fatalf("%s: %s: DecodeVec: %v", where, what, err)
					}
					if err := cum.DecodeVec(pl, cumBack); err != nil {
						t.Fatalf("%s: %s: oracle DecodeVec: %v", where, what, err)
					}
					if !slices.Equal(back, p) || !slices.Equal(cumBack, q) {
						t.Fatalf("%s: %s: round trip %v -> %v, oracle %v -> %v", where, what, p, back, q, cumBack)
					}
				}
				check("honest", p, q)

				// A lie about the first bucket is the oracle's uniform shift.
				lie := rng.Uint64()
				hist.CorruptVec(p, lie)
				cum.CorruptVec(q, lie)
				if got := cumulated(p, k); !slices.Equal(got, q) {
					t.Fatalf("%s: CorruptVec(lie %#x) prefix-sums to %v, oracle %v", where, lie, got, q)
				}
				check("corrupted", p, q)
			}
		}
	}
}

// cumOps runs a Net's CountVec convergecasts with the cumulative-form
// oracle in place of the production combiner, on the production kernel.
type cumOps struct{ spantree.Ops }

func (o cumOps) Convergecast(c spantree.Combiner) (any, error) {
	cv := c.(*countVecCombiner)
	out, err := o.Ops.Convergecast(&cumCountVec{domain: cv.domain, preds: cv.preds, nested: cv.nested, withSum: cv.withSum, chain: cv.chain})
	if err != nil {
		return nil, err
	}
	// The Net prefix-sums a nested root vector; hand it the deltas of the
	// oracle's, so what its caller sees is the oracle's root vector.
	p := out.([]uint64)
	if cv.nested {
		for i := len(cv.preds) - 1; i > 0; i-- {
			p[i] -= p[i-1]
		}
	}
	return p, nil
}

// TestCountVecMatchesCumulativeOracleEndToEnd: whole sweeps — honest, with
// Byzantine senders, with dropped and duplicated messages; on the vector
// kernel (reliable and per-edge), the generic codec path and the goroutine
// engine — return what the
// oracle returns on the same path and charge every node what the oracle's
// encoding charged it.
func TestCountVecMatchesCumulativeOracleEndToEnd(t *testing.T) {
	type engine struct {
		name string
		mk   func(nw *netsim.Network) spantree.Ops
	}
	engines := []engine{
		{"fast", func(nw *netsim.Network) spantree.Ops { return spantree.NewFast(nw) }},
		{"fast-parallel", func(nw *netsim.Network) spantree.Ops {
			fe := spantree.NewFast(nw)
			fe.SetWorkers(3)
			return fe
		}},
		{"fast-generic", func(nw *netsim.Network) spantree.Ops { return genericOps{spantree.NewFast(nw)} }},
		{"goroutine", func(nw *netsim.Network) spantree.Ops { return spantree.NewGoroutine(nw) }},
	}
	rng := rand.New(rand.NewPCG(24, 0xe2e))
	for _, g := range []*topology.Graph{topology.Grid(9, 9), topology.Line(40), topology.Star(30)} {
		for _, spec := range []faults.Spec{{}, {Byz: 0.1}, {Drop: 0.05, Dup: 0.05}} {
			for _, k := range []int{1, 2, 8, 17} {
				preds := oracleChain(rng, k, k%2 == 0, false)
				items := make([][]uint64, g.N())
				for i := range items {
					for range []int{1, 1, 3, 0}[i%4] {
						items[i] = append(items[i], rng.Uint64N(1300))
					}
				}
				mkNet := func() *netsim.Network {
					nw := netsim.NewMulti(g, items, 1299, netsim.WithSeed(5))
					if spec.Active() {
						nw.Faults = faults.New(spec, nw.N(), nw.Root(), 5)
					}
					return nw
				}
				for _, eng := range engines {
					nw, ref := mkNet(), mkNet()
					net, refNet := NewNet(eng.mk(nw)), NewNet(cumOps{eng.mk(ref)})
					where := fmt.Sprintf("%s/%+v/k=%d/%s", g.Name, spec, k, eng.name)
					got := net.CountVec(core.Linear, preds, nil)
					want := refNet.CountVec(core.Linear, preds, nil)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: CountVec %v, oracle %v", where, got, want)
					}
					got, sum := net.CountVecSum(core.Linear, preds, nil)
					want, wantSum := refNet.CountVecSum(core.Linear, preds, nil)
					if !slices.Equal(got, want) || sum != wantSum {
						t.Fatalf("%s: CountVecSum %v/%d, oracle %v/%d", where, got, sum, want, wantSum)
					}
					for u := 0; u < nw.N(); u++ {
						id := topology.NodeID(u)
						if nw.Meter.SentBitsOf(id) != ref.Meter.SentBitsOf(id) ||
							nw.Meter.RecvBitsOf(id) != ref.Meter.RecvBitsOf(id) ||
							nw.Meter.MessagesOf(id) != ref.Meter.MessagesOf(id) {
							t.Fatalf("%s: node %d sent/recv/msgs %d/%d/%d, oracle %d/%d/%d", where, u,
								nw.Meter.SentBitsOf(id), nw.Meter.RecvBitsOf(id), nw.Meter.MessagesOf(id),
								ref.Meter.SentBitsOf(id), ref.Meter.RecvBitsOf(id), ref.Meter.MessagesOf(id))
						}
					}
				}
			}
		}
	}
}
