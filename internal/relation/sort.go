package relation

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// smallSort is the largest input SortTuples leaves to slices.SortStableFunc,
// an in-place insertion sort that allocates nothing at this size (the
// table's insert batches).
const smallSort = 16

// minSortChunk is the fewest tuples one sort worker is given, so small
// inputs do not pay for goroutines they cannot keep busy.
const minSortChunk = 1 << 14

// digitBits is the radix sort's digit width: one counting pass and one
// scatter pass per digit.
const (
	digitBits = 8
	digitMask = 1<<digitBits - 1
)

// sortKey is one tuple's radix record, a 128-bit number (hi, lo): the
// tuple's key, whose numeric order equals Compare order up to ties, above
// idxBits bits holding its input position. The position is never sorted
// on; the stable passes keep it ascending among equal keys.
type sortKey struct{ hi, lo uint64 }

// digit returns the key's digitBits bits starting at bit shift.
func (k *sortKey) digit(shift uint) int {
	if shift < 64 {
		return int((k.lo>>shift | k.hi<<(64-shift)) & digitMask)
	}
	return int(k.hi >> (shift - 64) & digitMask)
}

// keyField is one attribute's share of the sort key: the low bits of its
// digit that vary across the input, less the drop lowest of them when the
// key runs out of room.
type keyField struct {
	attr int
	mask uint64
	drop uint
	bits uint
}

// SortTuples sorts tuples in place into ascending phi order (Section 3.2,
// tuple re-ordering). The sort is stable: equal tuples keep their input
// order. Every tuple must have the schema's arity.
//
// Inputs of up to 16 tuples are insertion-sorted in place. Larger inputs
// are sorted by a stable LSD radix sort on a 128-bit record: the tuple's
// input position in the low bits and, above it, a key of the tuple's
// digits in attribute order, every digit cut to the low bits that vary
// across the input (the bits above are the same in every tuple, so the
// cut keeps Compare order). Key digits that are the same in every tuple
// are skipped. When the varying bits do not all fit, the key holds the
// leading ones and each run of equal keys is finished by a stable sort on
// Compare. Every pass over the input but that fix-up runs on up to
// GOMAXPROCS goroutines.
func (s *Schema) SortTuples(tuples []Tuple) {
	n := len(tuples)
	if n <= smallSort {
		slices.SortStableFunc(tuples, s.Compare)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), max(1, n/minSortChunk))
	idxBits := uint(bits.Len(uint(n - 1)))
	fields, width, exact := s.keyFields(tuples, workers, 128-idxBits)
	if width == 0 {
		return // every tuple is equal
	}

	keys := make([]sortKey, n)
	forChunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var kh, kl uint64
			t := tuples[i]
			for _, f := range fields {
				kh = kh<<f.bits | kl>>(64-f.bits)
				kl = kl<<f.bits | t[f.attr]&f.mask>>f.drop
			}
			keys[i] = sortKey{hi: kh<<idxBits | kl>>(64-idxBits), lo: kl<<idxBits | uint64(i)}
		}
	})
	src, dst := keys, make([]sortKey, n)
	counts := make([][1 << digitBits]int, workers)
	for shift := idxBits; shift < idxBits+width; shift += digitBits {
		if radixPass(src, dst, shift, counts) {
			src, dst = dst, src
		}
	}
	if !exact {
		s.fixRuns(tuples, src, idxBits)
	}
	permute(tuples, src, idxBits, workers)
}

// keyFields lays out the sort key: for every attribute in order, the low
// bits of its digit that vary across the tuples, until room bits are used.
// It returns the fields, the key's width in bits, and whether the key
// holds every varying bit (so equal keys mean equal tuples).
func (s *Schema) keyFields(tuples []Tuple, workers int, room uint) (fields []keyField, width uint, exact bool) {
	// Per-worker AND and OR of every digit; the two differ in exactly the
	// bits that vary.
	arity := len(s.domains)
	ands := make([]uint64, arity*workers)
	ors := make([]uint64, arity*workers)
	forChunks(workers, len(tuples), func(w, lo, hi int) {
		and, or := ands[w*arity:(w+1)*arity], ors[w*arity:(w+1)*arity]
		copy(and, tuples[lo])
		for i := lo; i < hi; i++ {
			for a, v := range tuples[i][:arity] {
				and[a] &= v
				or[a] |= v
			}
		}
	})
	for a := range arity {
		and, or := ands[a], ors[a]
		for w := 1; w < workers; w++ {
			and, or = and&ands[w*arity+a], or|ors[w*arity+a]
		}
		b := uint(bits.Len64(and ^ or))
		if b == 0 {
			continue
		}
		if width == room {
			return fields, width, false
		}
		f := keyField{attr: a, mask: math.MaxUint64 >> (64 - b), bits: min(b, room-width)}
		f.drop = b - f.bits
		fields = append(fields, f)
		width += f.bits
		if f.drop > 0 {
			return fields, width, false
		}
	}
	return fields, width, true
}

// radixPass stably scatters src into dst by the digit at bit shift and
// reports whether it did: a digit that is the same in every key is
// skipped. Each worker counts its contiguous chunk, and the chunks' output
// offsets are laid out worker by worker inside each bucket, so equal
// digits keep their input order.
func radixPass(src, dst []sortKey, shift uint, counts [][1 << digitBits]int) bool {
	workers := len(counts)
	forChunks(workers, len(src), func(w, lo, hi int) {
		c := &counts[w]
		*c = [1 << digitBits]int{}
		for i := lo; i < hi; i++ {
			c[src[i].digit(shift)]++
		}
	})
	off := 0
	for b := range 1 << digitBits {
		start := off
		for w := range counts {
			c := counts[w][b]
			counts[w][b] = off
			off += c
		}
		if off-start == len(src) {
			return false
		}
	}
	forChunks(workers, len(src), func(w, lo, hi int) {
		next := &counts[w]
		for i := lo; i < hi; i++ {
			b := src[i].digit(shift)
			dst[next[b]] = src[i]
			next[b]++
		}
	})
	return true
}

// fixRuns finishes a prefix-sorted key array: each run of equal keys is
// stably sorted by Compare on the full tuples — by insertion for short
// runs, by a stable merge for long ones.
func (s *Schema) fixRuns(tuples []Tuple, keys []sortKey, idxBits uint) {
	mask := uint64(1)<<idxBits - 1
	cmp := func(a, b sortKey) int { return s.Compare(tuples[a.lo&mask], tuples[b.lo&mask]) }
	for lo := 0; lo < len(keys); {
		end := lo + 1
		for end < len(keys) && keys[end].hi == keys[lo].hi && keys[end].lo&^mask == keys[lo].lo&^mask {
			end++
		}
		slices.SortStableFunc(keys[lo:end], cmp)
		lo = end
	}
}

// permute reorders tuples so tuples[i] becomes the tuple at the input
// position in keys[i]'s low idxBits bits: the workers gather into a
// scratch slice, which is copied back.
func permute(tuples []Tuple, keys []sortKey, idxBits uint, workers int) {
	mask := uint64(1)<<idxBits - 1
	out := make([]Tuple, len(tuples))
	forChunks(workers, len(keys), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = tuples[keys[i].lo&mask]
		}
	})
	forChunks(workers, len(keys), func(_, lo, hi int) {
		copy(tuples[lo:hi], out[lo:hi])
	})
}

// forChunks runs fn(w, lo, hi) over workers contiguous chunks of [0, n),
// one goroutine per chunk when there is more than one.
func forChunks(workers, n int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
}
