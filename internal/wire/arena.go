package wire

import "sensoragg/internal/bitio"

// Arena recycles payload backing storage within one run, killing the
// per-message allocation of FromWriter on the simulator's hot path.
//
// Lifecycle rules (see also README "Performance"):
//
//   - A protocol or engine checks a writer out with Writer, encodes into
//     it, and seals the bits into a Payload with Borrowed — the payload
//     aliases the writer's buffer, no copy is made.
//   - The payload is valid until the writer is returned with Release (or
//     reused); the borrower must finish decoding before releasing.
//   - A payload that must escape the checkout window (stored across
//     rounds, returned to a caller) must be copied out with Payload.Clone.
//
// An Arena is NOT safe for concurrent use: a team convergecast gives each
// member its own arena, which is also what keeps the free list
// contention-free.
type Arena struct {
	free []*bitio.Writer
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Writer checks a reset writer out of the arena, with capacity
// pre-allocated for sizeHint bits when it has to allocate a fresh one. At
// steady state every checkout is a free-list pop.
func (a *Arena) Writer(sizeHint int) *bitio.Writer {
	if n := len(a.free); n > 0 {
		w := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		w.Reset()
		return w
	}
	return bitio.NewWriter(sizeHint)
}

// Release returns w to the arena's free list. Any payload borrowed from w
// becomes invalid.
func (a *Arena) Release(w *bitio.Writer) {
	a.free = append(a.free, w)
}

// Borrowed seals the writer's bits into a Payload that aliases the
// writer's buffer — the zero-copy counterpart of FromWriter. The payload
// is valid only until the writer is next Reset, written to, or released
// back to its arena; use Payload.Clone for bits that must outlive that
// window.
func Borrowed(w *bitio.Writer) Payload {
	return Payload{b: w.Bytes(), n: w.Len()}
}

// Clone returns a payload with its own copy of the bits — how a borrowed
// (arena- or writer-aliased) payload escapes its checkout window.
func (p Payload) Clone() Payload {
	if len(p.b) == 0 {
		return Payload{n: p.n}
	}
	b := make([]byte, len(p.b))
	copy(b, p.b)
	return Payload{b: b, n: p.n}
}
