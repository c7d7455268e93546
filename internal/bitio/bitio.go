// Package bitio provides bit-granular encoding and decoding.
//
// The paper's complexity measure is the number of *bits* transmitted and
// received by a node (Patt-Shamir, TCS 370 (2007), Section 2.1). Everything
// that crosses a simulated link is therefore serialized through this package
// so message sizes are exact bit counts rather than byte-padded estimates.
package bitio

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortRead is returned when a reader runs out of bits mid-value.
var ErrShortRead = errors.New("bitio: not enough bits")

// WidthOf returns the number of bits needed to represent v, with a minimum
// of one bit so that zero is still a representable (1-bit) value.
func WidthOf(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// WidthOfRange returns the number of bits needed to represent any value in
// [0, maxValue]. It is the fixed width used for values drawn from a known
// domain, e.g. items bounded by the paper's X.
func WidthOfRange(maxValue uint64) int {
	return WidthOf(maxValue)
}

// Writer accumulates bits most-significant-first into an internal buffer.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns a writer with capacity pre-allocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the written bits packed into bytes; the final byte is
// zero-padded. The returned slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// WriteBit appends a single bit (any non-zero b is treated as 1).
func (w *Writer) WriteBit(b uint64) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteBits appends the width least-significant bits of v,
// most-significant-first. Width must be in [0, 64]; v must fit in width bits.
// Bits are packed a byte at a time, not bit by bit: this is the hot path of
// every message encode.
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	rem := width
	// Fill the current partial byte first (the buffer holds ⌈nbit/8⌉ bytes,
	// so a nonzero bit offset means the last byte exists and has room).
	if off := w.nbit & 7; off != 0 {
		free := 8 - off
		take := rem
		if take > free {
			take = free
		}
		bits := (v >> uint(rem-take)) & (1<<uint(take) - 1)
		w.buf[len(w.buf)-1] |= byte(bits << uint(free-take))
		w.nbit += take
		rem -= take
	}
	// Whole bytes.
	for rem >= 8 {
		w.buf = append(w.buf, byte(v>>uint(rem-8)))
		w.nbit += 8
		rem -= 8
	}
	// Trailing partial byte, zero-padded low.
	if rem > 0 {
		w.buf = append(w.buf, byte(v&(1<<uint(rem)-1))<<uint(8-rem))
		w.nbit += rem
	}
}

// WriteBool appends one bit: 1 for true, 0 for false.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteGamma appends v+1 in Elias gamma code, so any v >= 0 is encodable.
// Gamma coding costs 2*floor(log2(v+1))+1 bits: self-delimiting, used where
// a value's magnitude is data-dependent (e.g. counts whose bound is not
// shared in advance).
func (w *Writer) WriteGamma(v uint64) {
	if v == 1<<64-1 {
		panic("bitio: gamma overflow")
	}
	n := v + 1
	k := bits.Len64(n) - 1 // floor(log2 n)
	if 2*k+1 <= 64 {
		// The k-zero prefix and the (k+1)-bit value fit one word: n's top
		// bits in a 2k+1-wide field are exactly the k zeros.
		w.WriteBits(n, 2*k+1)
		return
	}
	w.WriteBits(0, k)
	w.WriteBits(n, k+1)
}

// GammaWidth returns the number of bits WriteGamma(v) would emit, and
// panics where WriteGamma panics: a charge computed from the width must
// fail on exactly the values the encoding it stands for fails on.
func GammaWidth(v uint64) int {
	if v == 1<<64-1 {
		panic("bitio: gamma overflow")
	}
	n := v + 1
	k := bits.Len64(n) - 1
	return 2*k + 1
}

// Reader consumes bits most-significant-first from a packed byte slice.
type Reader struct {
	buf  []byte
	nbit int // total available bits
	pos  int // bits consumed
}

// NewReader returns a reader over nbits bits packed in buf.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits > len(buf)*8 {
		panic("bitio: nbits exceeds buffer")
	}
	return &Reader{buf: buf, nbit: nbits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (uint64, error) {
	if r.pos >= r.nbit {
		return 0, ErrShortRead
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos%8))) & 1
	r.pos++
	return uint64(b), nil
}

// ReadBits consumes width bits and returns them as the low bits of a uint64.
// Like WriteBits, it consumes a byte at a time.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortRead
	}
	var v uint64
	rem := width
	// Drain the current partial byte.
	if off := r.pos & 7; off != 0 {
		avail := 8 - off
		take := rem
		if take > avail {
			take = avail
		}
		b := (r.buf[r.pos>>3] >> uint(avail-take)) & (1<<uint(take) - 1)
		v = uint64(b)
		r.pos += take
		rem -= take
	}
	// Whole bytes.
	for rem >= 8 {
		v = v<<8 | uint64(r.buf[r.pos>>3])
		r.pos += 8
		rem -= 8
	}
	// Leading bits of the next byte.
	if rem > 0 {
		v = v<<uint(rem) | uint64(r.buf[r.pos>>3]>>uint(8-rem))
		r.pos += rem
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadGamma consumes one Elias-gamma-coded value written by WriteGamma.
// The zero-prefix is scanned a byte at a time rather than bit by bit.
func (r *Reader) ReadGamma() (uint64, error) {
	k := 0
	for {
		if r.pos >= r.nbit {
			return 0, ErrShortRead
		}
		off := r.pos & 7
		avail := 8 - off
		if rem := r.nbit - r.pos; rem < avail {
			avail = rem
		}
		// The next `avail` upcoming bits, right-aligned.
		chunk := (r.buf[r.pos>>3] << uint(off)) >> uint(8-avail)
		if chunk == 0 {
			k += avail
			r.pos += avail
			if k > 64 {
				return 0, errors.New("bitio: malformed gamma code")
			}
			continue
		}
		zeros := avail - bits.Len8(chunk)
		k += zeros
		r.pos += zeros + 1 // the zeros plus the terminating 1 bit
		if k > 64 {
			return 0, errors.New("bitio: malformed gamma code")
		}
		break
	}
	rest, err := r.ReadBits(k)
	if err != nil {
		return 0, err
	}
	n := uint64(1)<<uint(k) | rest
	return n - 1, nil
}
