package bitio

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzOp is one field of a fuzzed bit stream: a gamma-coded value or a
// fixed-width one.
type fuzzOp struct {
	gamma bool
	width int
	v     uint64
}

// fuzzOps decodes data into fields, nine bytes each: a tag byte picks gamma
// (even) or fixed width (odd, width (tag>>1) mod 65) and a shift that lets
// small values through, then eight value bytes.
func fuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(data) >= 9; data = data[9:] {
		tag, v := data[0], binary.LittleEndian.Uint64(data[1:9])
		if tag&1 == 0 {
			v >>= (tag >> 2) % 64
			if v == math.MaxUint64 {
				v-- // the one value WriteGamma rejects
			}
			ops = append(ops, fuzzOp{gamma: true, v: v})
			continue
		}
		op := fuzzOp{width: int(tag>>1) % 65}
		if op.width < 64 {
			v &= 1<<op.width - 1
		}
		op.v = v
		ops = append(ops, op)
	}
	return ops
}

// FuzzGammaRoundTrip: any sequence of gamma-coded and fixed-width fields
// reads back equal, with Len the sum of the fields' GammaWidth or width;
// and a Reader over arbitrary bytes, driven by the same field sequence,
// returns errors on malformed input and never panics.
func FuzzGammaRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 129, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{252, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0, 0, 0, 0, 0, 0, 0, 1, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		var w Writer
		want := 0
		for _, op := range ops {
			if op.gamma {
				w.WriteGamma(op.v)
				want += GammaWidth(op.v)
			} else {
				w.WriteBits(op.v, op.width)
				want += op.width
			}
		}
		if w.Len() != want {
			t.Fatalf("Len %d, the fields' widths sum to %d", w.Len(), want)
		}
		r := NewReader(w.Bytes(), w.Len())
		for i, op := range ops {
			var got uint64
			var err error
			if op.gamma {
				got, err = r.ReadGamma()
			} else {
				got, err = r.ReadBits(op.width)
			}
			if err != nil || got != op.v {
				t.Fatalf("field %d (%+v): read %d, %v", i, op, got, err)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left after the last field", r.Remaining())
		}

		// Arbitrary bytes, read as the same field sequence and then as
		// gammas to the end: every read either succeeds within the stream
		// or fails with an error (short stream, malformed gamma).
		raw := NewReader(data, len(data)*8)
		for _, op := range ops {
			before := raw.Remaining()
			var err error
			if op.gamma {
				_, err = raw.ReadGamma()
			} else {
				_, err = raw.ReadBits(op.width)
			}
			if err != nil {
				return
			}
			if raw.Remaining() < 0 || raw.Remaining() > before {
				t.Fatalf("remaining went from %d to %d", before, raw.Remaining())
			}
		}
		for raw.Remaining() > 0 {
			if _, err := raw.ReadGamma(); err != nil {
				break
			}
		}
		if _, err := raw.ReadBits(65); err == nil {
			t.Fatal("ReadBits(65) succeeded")
		}
	})
}
