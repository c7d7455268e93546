package agg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sensoragg/internal/bitio"
	"sensoragg/internal/core"
	"sensoragg/internal/wire"
)

// FuzzCountVecCodec round-trips the CountVec delta/gamma vector codec: a
// fuzzed byte string is decoded into a probe chain and a histogram-form
// partial vector (any vector is one), encoded with AppendVec, decoded with
// DecodeVec, and compared slot for slot — with VecBits asserted against
// the bits actually written, since the fast engine charges meters through
// VecBits without materializing payloads. Seeds cover the PR 4 edge cases: the empty
// chain, width 1, full-uint64 thresholds (delta width 64), and
// TRUE-topped chains.
func FuzzCountVecCodec(f *testing.F) {
	// seed(thresholds, counts, trueTop, withSum): pack a corpus entry. The
	// counts are histogram buckets — the deltas of the cumulative vectors
	// these seeds held while partials were cumulative, so each still
	// encodes to the bytes it always did.
	seed := func(thresholds []uint64, counts []uint64, trueTop, withSum bool) []byte {
		var b bytes.Buffer
		flags := byte(0)
		if trueTop {
			flags |= 1
		}
		if withSum {
			flags |= 2
		}
		b.WriteByte(flags)
		b.WriteByte(byte(len(thresholds)))
		for _, t := range thresholds {
			binary.Write(&b, binary.LittleEndian, t)
		}
		for _, c := range counts {
			binary.Write(&b, binary.LittleEndian, c)
		}
		return b.Bytes()
	}
	f.Add(seed(nil, nil, false, false))                                                            // empty chain
	f.Add(seed(nil, []uint64{7}, true, false))                                                     // width 1: lone TRUE top
	f.Add(seed([]uint64{42}, []uint64{13}, false, false))                                          // width 1: lone threshold
	f.Add(seed([]uint64{1, 2, 3}, []uint64{0, 0, 0}, false, false))                                // all-zero counts
	f.Add(seed([]uint64{^uint64(0) - 1, ^uint64(0)}, []uint64{1, ^uint64(0)>>1 - 1}, true, false)) // full-uint64 thresholds
	f.Add(seed([]uint64{10, 20, 30, 40}, []uint64{5, 0, 4, 91}, true, true))                       // TRUE-topped, sum rider
	f.Add(seed([]uint64{0, 1 << 32, 1 << 63}, []uint64{1, 1, ^uint64(0) - 3}, false, true))        // 64-bit deltas + sum
	f.Add(seed([]uint64{1, 2, 3}, []uint64{9, 0, 0}, false, false))                                // all-equal counts: every delta 0
	f.Add(seed([]uint64{5, 6}, []uint64{0, ^uint64(0) - 1}, false, false))                         // one full-uint64 delta

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		trueTop := data[0]&1 != 0
		withSum := data[0]&2 != 0
		k := int(data[1]) % 65
		data = data[2:]
		need := k * 8 * 2
		if withSum {
			need += 8
		}
		if len(data) < need {
			return
		}
		// Thresholds must be a strictly ascending Less-chain (optionally
		// TRUE-topped): sort+dedupe whatever the fuzzer supplied. The
		// buckets are taken as they come.
		thresholds := make([]uint64, 0, k)
		for i := 0; i < k; i++ {
			thresholds = append(thresholds, binary.LittleEndian.Uint64(data[i*8:]))
		}
		data = data[k*8:]
		preds := make([]wire.Pred, 0, k+1)
		prev := uint64(0)
		for i, thr := range thresholds {
			if i > 0 && thr <= prev {
				continue
			}
			preds = append(preds, wire.Less(thr))
			prev = thr
		}
		kept := len(preds)
		if trueTop {
			preds = append(preds, wire.True())
		}
		if len(preds) == 0 {
			return
		}
		// Gamma-coded slots (the first bucket and the sum rider) encode
		// v+1, so 2⁶⁴−1 is outside the codec's domain — counts and sums
		// are bounded by N·X in every real sweep. Clamp fuzzed values to
		// the domain instead of rediscovering the documented panic.
		const gammaMax = ^uint64(0) - 1
		partial := make([]uint64, 0, len(preds)+1)
		for i := 0; i < kept; i++ {
			partial = append(partial, binary.LittleEndian.Uint64(data[i*8:]))
		}
		data = data[k*8:]
		if trueTop {
			partial = append(partial, 0) // nothing new under the TRUE top
		}
		partial[0] = min(partial[0], gammaMax)
		if withSum {
			partial = append(partial, min(binary.LittleEndian.Uint64(data), gammaMax))
		}

		if !nestedPreds(preds) {
			t.Fatalf("constructed chain not nested: %v", preds)
		}
		comb := countVecCombiner{domain: core.Linear, preds: preds, nested: true, withSum: withSum}
		comb.chain = buildChain(preds, nil)

		w := bitio.NewWriter(64)
		comb.AppendVec(w, partial)
		pl := wire.FromWriter(w)
		if got, want := pl.Bits(), comb.VecBits(partial); got != want {
			t.Fatalf("VecBits says %d, AppendVec wrote %d (chain %v, partial %v)", want, got, preds, partial)
		}
		dst := make([]uint64, len(partial))
		if err := comb.DecodeVec(pl, dst); err != nil {
			t.Fatalf("DecodeVec: %v (chain %v, partial %v)", err, preds, partial)
		}
		for i := range partial {
			if dst[i] != partial[i] {
				t.Fatalf("slot %d: decoded %d, encoded %d (chain %v, partial %v)", i, dst[i], partial[i], preds, partial)
			}
		}
		// The generic Encode/Decode pair (the goroutine engine's codec path)
		// must be byte-identical to the vector path.
		pl2 := comb.Encode(partial)
		if pl2.Bits() != pl.Bits() {
			t.Fatalf("generic Encode wrote %d bits, AppendVec %d", pl2.Bits(), pl.Bits())
		}
		back, err := comb.Decode(pl2)
		if err != nil {
			t.Fatalf("generic Decode: %v", err)
		}
		for i, v := range back.([]uint64) {
			if v != partial[i] {
				t.Fatalf("generic slot %d: %d != %d", i, v, partial[i])
			}
		}
	})
}
