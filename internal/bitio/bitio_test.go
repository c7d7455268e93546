package bitio

import (
	randv1 "math/rand"
	"testing"
	"testing/quick"
)

func TestWidthOf(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1 << 63, 64},
	}
	for _, tt := range tests {
		if got := WidthOf(tt.v); got != tt.want {
			t.Errorf("WidthOf(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0, 1)
	w.WriteBits(0xdeadbeef, 32)
	w.WriteBool(true)
	if w.Len() != 37 {
		t.Fatalf("Len = %d, want 37", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("first field = %b", v)
	}
	if v, _ := r.ReadBits(1); v != 0 {
		t.Errorf("second field = %d", v)
	}
	if v, _ := r.ReadBits(32); v != 0xdeadbeef {
		t.Errorf("third field = %x", v)
	}
	if b, _ := r.ReadBool(); !b {
		t.Error("bool = false, want true")
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if _, err := r.ReadBit(); err != ErrShortRead {
		t.Errorf("read past end: err = %v, want ErrShortRead", err)
	}
}

func TestWriteBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteBits with oversized value should panic")
		}
	}()
	var w Writer
	w.WriteBits(8, 3)
}

func TestGammaRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 100, 1 << 20, 1<<40 - 1}
	var w Writer
	for _, v := range values {
		w.WriteGamma(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for _, v := range values {
		got, err := r.ReadGamma()
		if err != nil {
			t.Fatalf("ReadGamma: %v", err)
		}
		if got != v {
			t.Errorf("gamma round trip: got %d, want %d", got, v)
		}
	}
}

func TestGammaWidth(t *testing.T) {
	for _, v := range []uint64{0, 1, 5, 63, 64, 1000, 1 << 30} {
		var w Writer
		w.WriteGamma(v)
		if w.Len() != GammaWidth(v) {
			t.Errorf("GammaWidth(%d) = %d, but wrote %d bits", v, GammaWidth(v), w.Len())
		}
	}
}

// TestGammaOverflowTwins: 2⁶⁴−1 is the one value gamma cannot code (v+1
// wraps), and the width twin must refuse it as loudly as the writer — a
// charge computed from GammaWidth stands for a WriteGamma that would panic.
func TestGammaOverflowTwins(t *testing.T) {
	for name, f := range map[string]func(){
		"WriteGamma": func() { new(Writer).WriteGamma(^uint64(0)) },
		"GammaWidth": func() { GammaWidth(^uint64(0)) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "bitio: gamma overflow" {
					t.Errorf("%s(2^64-1): recovered %v, want the gamma overflow panic", name, r)
				}
			}()
			f()
		}()
	}
	// The largest codable value still agrees, at the 127-bit extreme.
	var w Writer
	w.WriteGamma(^uint64(0) - 1)
	if w.Len() != GammaWidth(^uint64(0)-1) || w.Len() != 127 {
		t.Errorf("GammaWidth(2^64-2) = %d, wrote %d bits, want 127", GammaWidth(^uint64(0)-1), w.Len())
	}
}

// TestRoundTripProperty: any (value, width) pair with value fitting in
// width bits round-trips, interleaved with gamma codes.
func TestRoundTripProperty(t *testing.T) {
	check := func(vals []uint64, widths []uint8) bool {
		var w Writer
		type field struct {
			v     uint64
			width int
			gamma bool
		}
		var fields []field
		for i, v := range vals {
			width := 64
			if i < len(widths) {
				width = int(widths[i])%64 + 1
			}
			v &= (1 << uint(width)) - 1
			if width == 64 {
				v = vals[i]
			}
			gamma := i%3 == 0 && v < 1<<62
			if gamma {
				w.WriteGamma(v)
			} else {
				w.WriteBits(v, width)
			}
			fields = append(fields, field{v, width, gamma})
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, f := range fields {
			var got uint64
			var err error
			if f.gamma {
				got, err = r.ReadGamma()
			} else {
				got, err = r.ReadBits(f.width)
			}
			if err != nil || got != f.v {
				return false
			}
		}
		return r.Remaining() == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: randv1.New(randv1.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(64)
	w.WriteBits(0xff, 8)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after reset = %d", w.Len())
	}
	w.WriteBits(0b1, 1)
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBit(); v != 1 {
		t.Error("bit after reset mangled")
	}
}

func TestReaderMalformedGamma(t *testing.T) {
	// 70 zero bits: no terminating 1 within 64 — must error, not hang.
	var w Writer
	for i := 0; i < 70; i++ {
		w.WriteBit(0)
	}
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadGamma(); err == nil {
		t.Error("malformed gamma should error")
	}
}
