package wire

import (
	"testing"

	"sensoragg/internal/bitio"
)

// FuzzDecodePred: any bits at any value width in 1..64 decode to a predicate
// or an error, never a panic, and a decoded predicate re-encodes to exactly
// the bits it consumed, as many as EncodedBits says.
func FuzzDecodePred(f *testing.F) {
	for _, p := range []Pred{True(), Less(5), GreaterEq(1 << 19), InRange(3, 1000)} {
		w := bitio.NewWriter(p.EncodedBits(20))
		p.AppendTo(w, 20)
		f.Add(w.Bytes(), uint8(20), uint8(8-w.Len()%8))
	}
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width, trim uint8) {
		vw := 1 + int(width%64)
		nbits := max(0, len(data)*8-int(trim%8))
		r := bitio.NewReader(data, nbits)
		p, err := DecodePred(r, vw)
		if err != nil {
			return
		}
		used := nbits - r.Remaining()
		if got := p.EncodedBits(vw); got != used {
			t.Fatalf("%v at width %d: EncodedBits %d, decoded from %d bits", p, vw, got, used)
		}
		w := bitio.NewWriter(used)
		p.AppendTo(w, vw)
		if w.Len() != used {
			t.Fatalf("%v at width %d: re-encoded to %d bits, decoded from %d", p, vw, w.Len(), used)
		}
		for i := 0; i < used; i++ {
			if bit(w.Bytes(), i) != bit(data, i) {
				t.Fatalf("%v at width %d: re-encoding differs from the input at bit %d of %d", p, vw, i, used)
			}
		}
	})
}

// bit is bit i of buf, most significant first.
func bit(buf []byte, i int) byte { return buf[i/8] >> (7 - i%8) & 1 }
