package core

import (
	"math/bits"
	"sync"

	"repro/internal/relation"
)

// Arena is a bump allocator for decode output: one backing slab of uint64
// digits and one slab of tuple headers. A block
// decode that used to make one heap allocation per tuple carves everything
// out of the arena instead, so a steady-state decode (arena pooled and
// Reset between blocks) performs zero heap allocations.
//
// Ownership and aliasing rules (see DESIGN.md §11):
//
//   - Tuples returned by arena-backed decoders alias the arena's slab. They
//     are valid until the arena is Reset or returned to the pool; a caller
//     that retains a tuple past that point must Clone() it first.
//   - Tuples carved by one decode never overlap each other (each header is
//     a full-slice expression over a disjoint slab range), so mutating one
//     cannot clobber a neighbour, and append on one cannot grow into the
//     next.
//   - An Arena is not safe for concurrent use; pool it per goroutine.
//
// The zero value is ready to use.
type Arena struct {
	vals   []uint64
	hdrs   []relation.Tuple
	resets uint64

	// The suffix digit tables of the last schema decoded into the arena
	// (suffixDigits); they survive Reset.
	sx suffixDigits
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset truncates the arena so its slabs can be reused. Every tuple
// previously carved from the arena becomes invalid: its digits will be
// overwritten by the next decode. Reset keeps slab capacity, which is what
// makes steady-state decode allocation-free.
func (a *Arena) Reset() {
	a.vals = a.vals[:0]
	a.hdrs = a.hdrs[:0]
	a.resets++
}

// Reuses reports how many times the arena has been Reset — the number of
// decodes that reused its slabs instead of allocating.
func (a *Arena) Reuses() uint64 { return a.resets }

// SlabBytes reports the arena's resident slab capacity in bytes.
func (a *Arena) SlabBytes() int {
	const hdrSize = 24 // slice header: pointer + len + cap
	return cap(a.vals)*8 + cap(a.hdrs)*hdrSize
}

// grow replaces the value slab with one of at least need free capacity.
// The old slab is abandoned, not copied: tuples already carved keep
// referencing it (the GC keeps it alive), and the arena converges on a
// right-sized slab after a few blocks.
func (a *Arena) grow(need int) {
	c := 2 * cap(a.vals)
	if c < need {
		c = need
	}
	if c < 256 {
		c = 256
	}
	a.vals = make([]uint64, 0, c)
}

// Tuple carves one n-digit tuple from the arena. The digits are NOT
// zeroed; callers must write every digit (all decode kernels do).
func (a *Arena) Tuple(n int) relation.Tuple {
	if len(a.vals)+n > cap(a.vals) {
		a.grow(n)
	}
	at := len(a.vals)
	a.vals = a.vals[:at+n]
	return relation.Tuple(a.vals[at : at+n : at+n])
}

// Phis carves an n-entry flat-ordinal slab from the arena — the batch
// executor's per-block φ sequence. Like Tuple it is a full-slice
// expression over a disjoint slab range, not zeroed, and valid until the
// next Reset.
func (a *Arena) Phis(n int) []uint64 { return []uint64(a.Tuple(n)) }

// Tuples carves count tuples of n digits each, backed by one contiguous
// slab range, and returns their headers. Each header is a full-slice
// expression over its own disjoint range, so appending to one returned
// tuple can never overwrite another. Digits are not zeroed.
func (a *Arena) Tuples(count, n int) []relation.Tuple {
	if len(a.vals)+count*n > cap(a.vals) {
		a.grow(count * n)
	}
	at := len(a.vals)
	a.vals = a.vals[:at+count*n]
	if len(a.hdrs)+count > cap(a.hdrs) {
		c := 2 * cap(a.hdrs)
		if c < len(a.hdrs)+count {
			c = len(a.hdrs) + count
		}
		grown := make([]relation.Tuple, len(a.hdrs), c)
		copy(grown, a.hdrs)
		a.hdrs = grown
	}
	h := len(a.hdrs)
	a.hdrs = a.hdrs[:h+count]
	out := a.hdrs[h : h+count : h+count]
	for i := 0; i < count; i++ {
		lo, hi := at+i*n, at+(i+1)*n
		out[i] = relation.Tuple(a.vals[lo:hi:hi])
	}
	return out
}

// suffixDigits returns what a tuple decode reads a row's suffix digits
// off its suffix ordinal with (put), for s's split. It is built once per
// schema the arena decodes, not once per block.
func (a *Arena) suffixDigits(s *relation.Schema) *suffixDigits {
	if a.sx.s != s {
		at, w, _ := s.Split()
		a.sx.s, a.sx.div, a.sx.rad = s, a.sx.div[:0], s.Radices()[at:]
		for _, wg := range w[at : len(w)-1] {
			a.sx.div = append(a.sx.div, newDivider(wg))
		}
	}
	return &a.sx
}

// suffixDigits holds, for the suffix attributes at..n-1 of a schema's
// split, a divider by each weight but the last (which is 1) and the
// radices.
type suffixDigits struct {
	s   *relation.Schema
	div []divider
	rad []uint64
}

// divider divides by an invariant d >= 1 without a hardware divide
// (Granlund and Montgomery, "Division by invariant integers using
// multiplication", PLDI 1994, Fig. 4.1): ⌊n/d⌋ for every 64-bit n is one
// multiply-high, two adds and two shifts.
type divider struct {
	m        uint64 // ⌊2⁶⁴(2^l - d)/d⌋ + 1, l = ⌈log2 d⌉
	sh1, sh2 uint8  // min(l, 1), max(l-1, 0)
}

func newDivider(d uint64) divider {
	l := bits.Len64(d - 1)
	// 2^l - d < d, so the quotient fits; 2^l wraps to 0 when l = 64.
	q, _ := bits.Div64(uint64(1)<<l-d, 0, d)
	return divider{m: q + 1, sh1: uint8(min(l, 1)), sh2: uint8(max(l-1, 0))}
}

// quo returns ⌊n/d⌋.
func (v divider) quo(n uint64) uint64 {
	t, _ := bits.Mul64(v.m, n)
	return (t + (n-t)>>v.sh1) >> v.sh2
}

// arenaPool recycles arenas across transient decode passes.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// GetArena returns a pooled arena, already Reset. Pair with PutArena.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena resets a and returns it to the pool. The caller must guarantee
// no tuple carved from a is still referenced: the next GetArena caller
// will overwrite the slab.
func PutArena(a *Arena) {
	a.Reset()
	arenaPool.Put(a)
}
