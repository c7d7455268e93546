// Package qdigest implements the q-digest quantile summary of Shrivastava,
// Buragohain, Agrawal and Suri (SenSys 2004) — the other canonical
// sensor-network quantile structure of the paper's era, published the same
// year as the PODC note. A q-digest is a pruned binary partition of the
// value domain [0, X]: a bucket survives only if it is "heavy enough"
// (count + parent + sibling > n/k), so at most 3k buckets remain and any
// quantile query errs by at most (log X)·n/k ranks. Digests over disjoint
// multisets merge by bucket-wise addition followed by recompression, which
// is what the tree protocol ships.
package qdigest

import (
	"fmt"
	"sort"

	"sensoragg/internal/bitio"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// Digest is a q-digest over the value domain [0, maxX]. The zero value is
// unusable; use New.
type Digest struct {
	k      int
	depth  uint // levels below the root; leaves cover single values
	maxX   uint64
	n      uint64
	counts map[uint64]uint64 // bucket ID (heap numbering, root=1) -> count
}

// New returns an empty digest with compression parameter k >= 1 over
// values in [0, maxX]. Larger k = more buckets = smaller rank error.
func New(k int, maxX uint64) *Digest {
	if k < 1 {
		panic(fmt.Sprintf("qdigest: k=%d < 1", k))
	}
	depth := uint(0)
	for uint64(1)<<depth < maxX+1 {
		depth++
	}
	return &Digest{k: k, depth: depth, maxX: maxX, counts: make(map[uint64]uint64)}
}

// N returns the number of inserted items.
func (d *Digest) N() uint64 { return d.n }

// Buckets returns the number of stored buckets.
func (d *Digest) Buckets() int { return len(d.counts) }

// K returns the compression parameter.
func (d *Digest) K() int { return d.k }

// MaxX returns the domain bound.
func (d *Digest) MaxX() uint64 { return d.maxX }

// leafID returns the bucket ID of the leaf covering value v.
func (d *Digest) leafID(v uint64) uint64 { return uint64(1)<<d.depth + v }

// rangeOf returns the [lo, hi] value range a bucket covers.
func (d *Digest) rangeOf(id uint64) (lo, hi uint64) {
	level := uint(bitsLen(id)) - 1
	span := d.depth - level
	base := (id - uint64(1)<<level) << span
	return base, base + (uint64(1) << span) - 1
}

func bitsLen(v uint64) int {
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// Insert adds `count` occurrences of value v.
func (d *Digest) Insert(v uint64, count uint64) {
	if v > d.maxX {
		panic(fmt.Sprintf("qdigest: value %d exceeds domain %d", v, d.maxX))
	}
	if count == 0 {
		return
	}
	d.counts[d.leafID(v)] += count
	d.n += count
}

// threshold is the q-digest property bound ⌊n/k⌋.
func (d *Digest) threshold() uint64 { return d.n / uint64(d.k) }

// Compress enforces the q-digest property bottom-up: any child pair whose
// (left + right + parent) total is at most ⌊n/k⌋ merges into the parent.
func (d *Digest) Compress() {
	if len(d.counts) == 0 {
		return
	}
	thresh := d.threshold()
	if thresh == 0 {
		return
	}
	// Process levels from the deepest up so buckets promoted by a merge are
	// themselves considered at their new level.
	byLevel := make([][]uint64, d.depth+1)
	for id := range d.counts {
		byLevel[bitsLen(id)-1] = append(byLevel[bitsLen(id)-1], id)
	}
	for level := int(d.depth); level >= 1; level-- {
		ids := byLevel[level]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			c, ok := d.counts[id]
			if !ok {
				continue // already merged as a sibling
			}
			parent := id / 2
			sibling := id ^ 1
			total := c + d.counts[parent] + d.counts[sibling]
			if total <= thresh {
				if _, had := d.counts[parent]; !had {
					byLevel[level-1] = append(byLevel[level-1], parent)
				}
				d.counts[parent] = total
				delete(d.counts, id)
				delete(d.counts, sibling)
			}
		}
	}
}

// Merge folds other (same domain, same k) into d and recompresses.
func (d *Digest) Merge(other *Digest) {
	if d.maxX != other.maxX || d.k != other.k {
		panic("qdigest: merging digests with different parameters")
	}
	for id, c := range other.counts {
		d.counts[id] += c
	}
	d.n += other.n
	d.Compress()
}

// Quantile returns a value whose rank is within (log X)·n/k of the
// requested 1-based rank: buckets sorted by (hi, level-deepest-first) are
// accumulated until the running count reaches the rank, and the bucket's
// upper value is returned.
func (d *Digest) Quantile(rank uint64) (uint64, error) {
	if d.n == 0 {
		return 0, fmt.Errorf("qdigest: quantile of empty digest")
	}
	if rank < 1 {
		rank = 1
	}
	if rank > d.n {
		rank = d.n
	}
	type bucket struct {
		hi, lo, count uint64
	}
	buckets := make([]bucket, 0, len(d.counts))
	for id, c := range d.counts {
		lo, hi := d.rangeOf(id)
		buckets = append(buckets, bucket{hi: hi, lo: lo, count: c})
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].hi != buckets[j].hi {
			return buckets[i].hi < buckets[j].hi
		}
		return buckets[i].lo > buckets[j].lo // smaller ranges first
	})
	var acc uint64
	for _, b := range buckets {
		acc += b.count
		if acc >= rank {
			return b.hi, nil
		}
	}
	return buckets[len(buckets)-1].hi, nil
}

// Median returns Quantile(⌈n/2⌉).
func (d *Digest) Median() (uint64, error) { return d.Quantile((d.n + 1) / 2) }

// RankErrorBound returns the structure's worst-case rank error,
// depth·⌊n/k⌋.
func (d *Digest) RankErrorBound() uint64 {
	return uint64(d.depth) * d.threshold()
}

// EncodedBits returns the wire size: bucket count plus delta-gamma IDs and
// gamma counts.
func (d *Digest) EncodedBits() int {
	w := bitio.NewWriter(16 + len(d.counts)*12)
	d.AppendTo(w)
	return w.Len()
}

// AppendTo serializes the digest.
func (d *Digest) AppendTo(w *bitio.Writer) {
	ids := make([]uint64, 0, len(d.counts))
	for id := range d.counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.WriteGamma(d.n)
	w.WriteGamma(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		w.WriteGamma(id - prev) // strictly increasing
		w.WriteGamma(d.counts[id] - 1)
		prev = id
	}
}

// Decode parses a digest serialized by AppendTo; k and maxX are protocol
// constants known network-wide.
func Decode(r *bitio.Reader, k int, maxX uint64) (*Digest, error) {
	d := New(k, maxX)
	n, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("qdigest: decoding n: %w", err)
	}
	count, err := r.ReadGamma()
	if err != nil {
		return nil, fmt.Errorf("qdigest: decoding bucket count: %w", err)
	}
	var prev uint64
	for i := uint64(0); i < count; i++ {
		dID, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("qdigest: decoding bucket %d id: %w", i, err)
		}
		c, err := r.ReadGamma()
		if err != nil {
			return nil, fmt.Errorf("qdigest: decoding bucket %d count: %w", i, err)
		}
		prev += dID
		d.counts[prev] = c + 1
	}
	d.n = n
	return d, nil
}

// --- tree protocol ---

// ProtocolResult reports a q-digest quantile query.
type ProtocolResult struct {
	// Value is the answer from the root digest.
	Value uint64
	// N is the total item count.
	N uint64
	// RankErrorBound is the digest's worst-case rank error.
	RankErrorBound uint64
	// Comm is the communication accrued.
	Comm netsim.Delta
}

type combiner struct {
	k    int
	maxX uint64
}

var _ spantree.Combiner = combiner{}

func (c combiner) Local(n *netsim.Node) any {
	d := New(c.k, c.maxX)
	for _, it := range n.Items {
		if it.Active {
			d.Insert(it.Cur, 1)
		}
	}
	d.Compress()
	return d
}

func (c combiner) Merge(acc, child any) any {
	a := acc.(*Digest)
	a.Merge(child.(*Digest))
	return a
}

func (c combiner) AppendPartial(w *bitio.Writer, p any) {
	p.(*Digest).AppendTo(w)
}

func (c combiner) Decode(pl wire.Payload) (any, error) {
	return Decode(pl.Reader(), c.k, c.maxX)
}

// QuantileProtocol aggregates q-digests up the tree and queries the rank
// (0 = median) at the root.
func QuantileProtocol(ops spantree.Ops, k int, rank uint64) (ProtocolResult, error) {
	if k < 1 {
		return ProtocolResult{}, fmt.Errorf("qdigest: k must be >= 1, got %d", k)
	}
	nw := ops.Network()
	before := nw.Meter.Snapshot()
	out, err := ops.Convergecast(combiner{k: k, maxX: nw.MaxX})
	if err != nil {
		return ProtocolResult{}, fmt.Errorf("qdigest: convergecast: %w", err)
	}
	d := out.(*Digest)
	if d.N() == 0 {
		return ProtocolResult{}, fmt.Errorf("qdigest: no active items")
	}
	if rank == 0 {
		rank = (d.N() + 1) / 2
	}
	v, err := d.Quantile(rank)
	if err != nil {
		return ProtocolResult{}, err
	}
	return ProtocolResult{
		Value:          v,
		N:              d.N(),
		RankErrorBound: d.RankErrorBound(),
		Comm:           nw.Meter.Since(before),
	}, nil
}

// MedianProtocol runs QuantileProtocol at the median rank.
func MedianProtocol(ops spantree.Ops, k int) (ProtocolResult, error) {
	return QuantileProtocol(ops, k, 0)
}
