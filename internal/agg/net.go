package agg

import (
	"fmt"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/hashing"
	"sensoragg/internal/loglog"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// Broadcast opcodes: every root-initiated protocol round begins with a
// broadcast telling the nodes what to run. 3 bits opcode + 1 bit domain.
const (
	opMinMax = iota
	opCount
	opApxCount
	opZoom
	opSum
	opFilter
	opCountVec
	opMultiAgg
)

const opBits = 3

// Net implements core.Net on the simulated network: the primitive
// protocols of §2.2 realized as broadcast–convergecast over the spanning
// tree, with every bit charged to the network meter.
type Net struct {
	ops spantree.Ops
	nw  *netsim.Network

	sketchP int
	est     loglog.Estimator
	sigma   float64
	alphaC  float64
	// instance counts the α-counting instances issued so far; instance i
	// hashes with instanceHasher(i).
	instance uint64
	logWidth int

	// bw is the reusable broadcast writer: a broadcast payload lives only
	// for the duration of the (synchronous) Broadcast call, so it borrows
	// this buffer instead of copying. A Net runs one protocol at a time;
	// busy guards that invariant (see bcast).
	bw   bitio.Writer
	busy bool
	// Reusable combiner boxes for the Fact 2.1 primitives: passing a
	// pointer into the ConvergecastVec interface avoids re-boxing the
	// combiner struct on every query. The combiners are read-only during
	// the convergecast, so sharing one instance across the engine's
	// workers is safe.
	ccomb  countCombiner
	scomb  sumCombiner
	mmcomb minMaxCombiner
	cvcomb countVecCombiner
	facomb fusedCombiner
	// chainBuf backs the nested probe chain's threshold array across
	// CountVec sweeps, so warm sweeps build it without allocating.
	chainBuf []uint64
}

// bcast returns the reusable broadcast writer, reset for a new payload, and
// marks the Net busy until the protocol calls endProtocol. Every protocol
// on a Net shares this writer (and the combiner boxes above), so a nested
// protocol call — e.g. from inside a broadcast Applier or a combiner — would
// silently clobber the outer protocol's borrowed payload. The guard turns
// that latent corruption into an immediate panic.
func (n *Net) bcast() *bitio.Writer {
	if n.busy {
		panic("agg: nested protocol call on one Net — the broadcast writer and combiner boxes are single-use per protocol; run nested protocols on a separate Net")
	}
	n.busy = true
	n.bw.Reset()
	return &n.bw
}

// endProtocol releases the broadcast writer and combiner boxes for the next
// protocol. Deferred by every protocol entry point.
func (n *Net) endProtocol() { n.busy = false }

var _ core.Net = (*Net)(nil)

// Option configures a Net.
type Option func(*Net)

// WithSketchP sets the LogLog register exponent p, m = 2^p (default
// core.DefaultSketchP).
func WithSketchP(p int) Option {
	return func(n *Net) { n.sketchP = p }
}

// WithEstimator selects the α-counting estimator (default HLL; see
// loglog.Estimator).
func WithEstimator(e loglog.Estimator) Option {
	return func(n *Net) { n.est = e }
}

// NewNet wraps a tree engine as the paper's primitive-protocol provider.
func NewNet(ops spantree.Ops, opts ...Option) *Net {
	nw := ops.Network()
	n := &Net{
		ops:     ops,
		nw:      nw,
		sketchP: core.DefaultSketchP,
		est:     loglog.EstHLL,
	}
	for _, o := range opts {
		o(n)
	}
	n.sigma = loglog.SigmaOf(n.est, 1<<n.sketchP)
	n.alphaC = 1e-6
	// +1 for the same reason as netsim.ValueWidth: log-domain predicate
	// thresholds range over [0, log2(X)+1].
	n.logWidth = bitio.WidthOf(core.Log2Floor(nw.MaxX) + 1)
	return n
}

// Network returns the underlying simulated network.
func (n *Net) Network() *netsim.Network { return n.nw }

// Ops returns the underlying tree engine.
func (n *Net) Ops() spantree.Ops { return n.ops }

// NumNodes implements core.Net.
func (n *Net) NumNodes() int { return n.nw.N() }

// MaxX implements core.Net.
func (n *Net) MaxX() uint64 { return n.nw.MaxX }

// ApxSigma implements core.Net.
func (n *Net) ApxSigma() float64 { return n.sigma }

// ApxAlpha implements core.Net.
func (n *Net) ApxAlpha() float64 { return n.alphaC }

// ValueWidth returns the fixed encoding width for values in domain d — the
// width every broadcast predicate and MIN/MAX extremum is framed at.
func (n *Net) ValueWidth(d core.Domain) int {
	if d == core.LogDomain {
		return n.logWidth
	}
	return n.nw.ValueWidth
}

func domainBit(d core.Domain) uint64 {
	if d == core.LogDomain {
		return 1
	}
	return 0
}

// header writes the opcode+domain broadcast header.
func header(w *bitio.Writer, op uint64, d core.Domain) {
	w.WriteBits(op, opBits)
	w.WriteBit(domainBit(d))
}

// MinMax implements core.Net: one broadcast announcing the query, one
// convergecast carrying (present, min, max) — Fact 2.1's MIN and MAX.
func (n *Net) MinMax(d core.Domain) (lo, hi uint64, ok bool) {
	w := n.bcast()
	defer n.endProtocol()
	header(w, opMinMax, d)
	n.ops.Broadcast(wire.Borrowed(w), nil)
	n.mmcomb = minMaxCombiner{domain: d, width: n.ValueWidth(d)}
	p, err := n.ops.ConvergecastVec(&n.mmcomb)
	if err != nil {
		// Panic with a wrapped error value, not a string: a mid-flight
		// fault surfaces here as spantree.ErrSweepIncomplete, and the
		// engine's recover must errors.As through it to drive the retry
		// policy.
		panic(fmt.Errorf("agg: minmax convergecast: %w", err))
	}
	if p[0] > p[1] {
		return 0, 0, false
	}
	return p[0], p[1], true
}

// Count implements core.Net: COUNTP of §3.1 — broadcast the predicate
// (O(log X) bits), convergecast gamma-coded counts (O(log N) bits).
func (n *Net) Count(d core.Domain, pred wire.Pred) uint64 {
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opCount, d)
	pred.AppendTo(w, vw)
	n.ops.Broadcast(wire.Borrowed(w), nil)
	n.ccomb = countCombiner{domain: d, pred: pred}
	p, err := n.ops.ConvergecastVec(&n.ccomb)
	if err != nil {
		panic(fmt.Errorf("agg: count convergecast: %w", err))
	}
	return p[0]
}

// instanceHasher derives the hash function for α-counting instance i,
// matching core.LocalNet's derivation so differential tests can compare
// estimates bit-for-bit.
func (n *Net) instanceHasher(i uint64) hashing.Hasher {
	return hashing.New(hashing.Mix64(n.nw.Seed()) ^ i)
}

// ApxCountRep implements core.Net: REP COUNTP's body — one broadcast of
// (predicate, repetition count), then r independent APX COUNT sketch
// convergecasts over the items' identities (spantree.FoldSketches).
// Instance seeds advance a persistent counter known to root and nodes
// alike from the protocol transcript, so they cost no wire bits.
func (n *Net) ApxCountRep(d core.Domain, pred wire.Pred, r int) []float64 {
	vw := n.ValueWidth(d)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opApxCount, d)
	pred.AppendTo(w, vw)
	w.WriteGamma(uint64(r))
	n.ops.Broadcast(wire.Borrowed(w), nil)

	out := make([]float64, r)
	first := n.instance + 1
	n.instance += uint64(r)
	spantree.FoldSketches(n.ops, n.sketchP, n.est, out,
		func(i int) hashing.Hasher { return n.instanceHasher(first + uint64(i)) },
		func(sk *loglog.Sketch, h hashing.Hasher, nd *netsim.Node) {
			for idx, it := range nd.Items {
				if it.Active && pred.Eval(DomainValue(it, d)) {
					sk.AddKey(h, n.nw.ItemKey(nd.ID, idx))
				}
			}
		})
	return out
}

// Zoom implements core.Net: Fig. 4 lines 3.2–3.3 — broadcast µ̂
// (gamma-coded), each node rescales or deactivates its items locally.
func (n *Net) Zoom(muHat uint64) {
	w := n.bcast()
	defer n.endProtocol()
	header(w, opZoom, core.Linear)
	w.WriteGamma(muHat)
	maxX := n.nw.MaxX
	n.ops.Broadcast(wire.Borrowed(w), func(nd *netsim.Node, pl wire.Payload) {
		r := pl.Reader()
		if _, err := r.ReadBits(opBits + 1); err != nil {
			panic(fmt.Sprintf("agg: zoom header: %v", err))
		}
		mu, err := r.ReadGamma()
		if err != nil {
			panic(fmt.Sprintf("agg: zoom µ̂: %v", err))
		}
		lo := uint64(1) << mu
		hi := lo << 1
		if mu == 0 {
			lo = 0 // bucket 0 holds values {0, 1}
		}
		width := hi - 1 - lo
		for i := range nd.Items {
			it := &nd.Items[i]
			if !it.Active {
				continue
			}
			if it.Cur < lo || it.Cur >= hi {
				it.Active = false
				continue
			}
			it.Cur = core.RescaleValue(it.Cur, lo, width, maxX)
		}
	})
}

// Reset implements core.Net. Restoring original items is experiment
// hygiene between runs, not a protocol step, so it is charge-free.
func (n *Net) Reset() { n.nw.ResetItems() }

// Filter broadcasts pred and deactivates every item that does not match —
// the WHERE clause of a TAG-style query: one O(log X)-bit broadcast makes
// every subsequent protocol in the session run over the selected
// sub-multiset. Undo with Reset.
func (n *Net) Filter(pred wire.Pred) {
	vw := n.ValueWidth(core.Linear)
	w := n.bcast()
	defer n.endProtocol()
	header(w, opFilter, core.Linear)
	pred.AppendTo(w, vw)
	n.ops.Broadcast(wire.Borrowed(w), func(nd *netsim.Node, pl wire.Payload) {
		r := pl.Reader()
		if _, err := r.ReadBits(opBits + 1); err != nil {
			panic(fmt.Sprintf("agg: filter header: %v", err))
		}
		p, err := wire.DecodePred(r, vw)
		if err != nil {
			panic(fmt.Sprintf("agg: filter predicate: %v", err))
		}
		for i := range nd.Items {
			it := &nd.Items[i]
			if it.Active && !p.Eval(it.Cur) {
				it.Active = false
			}
		}
	})
}
