// Package relation defines the relational data model used throughout the
// AVQ reproduction: attribute domains, relation schemas, and tuples.
//
// Following Section 2.2 of the paper, a relation scheme
// R = <<A1, A2, ..., An>> is the cartesian product of finite attribute
// domains. Every attribute value is a non-negative integer ordinal within
// its domain (Section 3.1 maps raw values onto ordinals; see package dict).
// A tuple is therefore a vector of digits in a mixed-radix number system
// whose radices are the domain sizes. That view is what makes the ordinal
// mapping phi (package ordinal) and the AVQ difference coding (package core)
// exact integer arithmetic rather than approximations.
package relation

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"

	"repro/internal/bitio"
)

// DomainKind describes the source type of a domain before attribute
// encoding. After encoding, all values are ordinals regardless of kind; the
// kind is retained so tools can render values back to their original form.
type DomainKind uint8

const (
	// KindOrdinal is a domain whose values are already small non-negative
	// integers (years, hours, codes).
	KindOrdinal DomainKind = iota
	// KindString is a domain of strings mapped to ordinals by a dictionary.
	KindString
)

// String returns the human-readable name of the kind.
func (k DomainKind) String() string {
	switch k {
	case KindOrdinal:
		return "ordinal"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("DomainKind(%d)", uint8(k))
	}
}

// Domain describes one attribute domain A_i: its name, its cardinality
// |A_i|, and the kind of raw values it holds. Valid attribute values are the
// ordinals 0 .. Size-1.
type Domain struct {
	Name string
	Size uint64
	Kind DomainKind
}

// Validate reports whether the domain is well formed.
func (d Domain) Validate() error {
	if d.Name == "" {
		return errors.New("relation: domain has empty name")
	}
	if d.Size == 0 {
		return fmt.Errorf("relation: domain %q has zero size", d.Name)
	}
	return nil
}

// ByteWidth returns the number of bytes needed to hold any ordinal in the
// domain as a fixed-width big-endian integer. A domain of size 1 still
// occupies one byte so that every attribute has a presence in the tuple's
// byte representation (the leading-zero run-length coding of package core
// counts bytes of this representation).
func (d Domain) ByteWidth() int {
	w := 1
	for max := d.Size - 1; max > 0xFF; max >>= 8 {
		w++
	}
	return w
}

// Schema is an ordered list of attribute domains: the relation scheme R.
// The zero value is an empty schema; use NewSchema to build a validated one.
//
// Schema values are immutable after construction and safe for concurrent
// use by multiple goroutines.
type Schema struct {
	domains  []Domain
	radices  []uint64 // radices[i] = |A_i|, the digit arithmetic's radix
	offsets  []int    // byte offset of each attribute in the fixed-width form
	widths   []int    // byte width of each attribute
	byteAttr []int    // byteAttr[j] = attribute holding byte j of the fixed-width form
	rowSize  int      // total fixed-width bytes per tuple

	// Bit-packed form: bits[i] = ceil(log2 |A_i|) (at least 1) and
	// bitSuffix[i] = bits[i] + ... + bits[n-1], bitSuffix[n] = 0.
	bits      []uint
	bitSuffix []int

	// Split-ordinal form: attributes split..n-1 are the longest run of
	// final attributes whose radix product W fits in a uint64, so their
	// digits are one machine word, Σ t[i]·weights[i] over i >= split, and
	// chain arithmetic on them is a checked add. weights[i] = prod_{j>i}
	// |A_j| for i >= split (zero below it). A schema whose whole space
	// ||R|| fits in 64 bits is flat: it splits at 0, weights are the
	// flat-ordinal weights of phi and W = ||R||.
	split   int
	weights []uint64
	space   uint64

	// tail is the byte-RLE tail plan (TailPlan), derived from the split.
	tail TailPlan
}

// NewSchema builds a schema from the given domains. It returns an error if
// any domain is invalid or if the schema has no attributes.
func NewSchema(domains ...Domain) (*Schema, error) {
	if len(domains) == 0 {
		return nil, errors.New("relation: schema needs at least one domain")
	}
	n := len(domains)
	s := &Schema{
		domains:   make([]Domain, n),
		radices:   make([]uint64, n),
		offsets:   make([]int, n),
		widths:    make([]int, n),
		bits:      make([]uint, n),
		bitSuffix: make([]int, n+1),
	}
	copy(s.domains, domains)
	off := 0
	for i, d := range s.domains {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("relation: attribute %d: %w", i, err)
		}
		w := d.ByteWidth()
		s.radices[i] = d.Size
		s.offsets[i] = off
		s.widths[i] = w
		s.bits[i] = bitio.BitsFor(d.Size)
		for range w {
			s.byteAttr = append(s.byteAttr, i)
		}
		off += w
	}
	for i := n - 1; i >= 0; i-- {
		s.bitSuffix[i] = s.bitSuffix[i+1] + int(s.bits[i])
	}
	s.rowSize = off
	s.computeSplit()
	s.computeTailPlan()
	return s, nil
}

// computeSplit finds the split: starting from the last attribute alone,
// it extends the suffix leftward while the radix product still fits in a
// uint64, recording each attribute's weight on the way (w[n-1] = 1,
// w[i] = w[i+1] * |A_{i+1}|).
func (s *Schema) computeSplit() {
	n := len(s.radices)
	w := make([]uint64, n)
	at, space := n-1, s.radices[n-1]
	w[at] = 1
	for at > 0 {
		hi, lo := bits.Mul64(space, s.radices[at-1])
		if hi != 0 {
			break
		}
		at--
		w[at], space = space, lo
	}
	s.split, s.weights, s.space = at, w, space
}

// MustSchema is like NewSchema but panics on error. It is intended for
// tests, examples, and statically known schemas.
func MustSchema(domains ...Domain) *Schema {
	s, err := NewSchema(domains...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes n in the schema.
func (s *Schema) NumAttrs() int { return len(s.domains) }

// Domain returns the i-th attribute domain.
func (s *Schema) Domain(i int) Domain { return s.domains[i] }

// Domains returns a copy of the schema's domains.
func (s *Schema) Domains() []Domain {
	out := make([]Domain, len(s.domains))
	copy(out, s.domains)
	return out
}

// RowSize returns the number of bytes m of a tuple in fixed-width
// big-endian form. This is the paper's tuple size used by the count-byte
// run-length coding.
func (s *Schema) RowSize() int { return s.rowSize }

// AttrWidth returns the fixed byte width of attribute i.
func (s *Schema) AttrWidth(i int) int { return s.widths[i] }

// AttrOffset returns the byte offset of attribute i within the fixed-width
// tuple representation.
func (s *Schema) AttrOffset(i int) int { return s.offsets[i] }

// AttrWidths returns every attribute's AttrWidth, in attribute order. The
// returned slice is owned by the schema and must not be modified.
func (s *Schema) AttrWidths() []int { return s.widths }

// AttrAtByte returns the attribute whose fixed-width field holds byte j
// of the tuple representation, 0 <= j < RowSize.
func (s *Schema) AttrAtByte(j int) int { return s.byteAttr[j] }

// Radices returns the domain sizes |A_i| in attribute order: the radices
// of the mixed-radix digit arithmetic. The returned slice is owned by the
// schema and must not be modified.
func (s *Schema) Radices() []uint64 { return s.radices }

// BitWidths returns the bit-packed form's field widths, bits[i] =
// ceil(log2 |A_i|) with a minimum of 1, and their suffix sums, suffix[i] =
// bits of attributes i..n-1 (len n+1, suffix[n] = 0). Both slices are owned
// by the schema and must not be modified.
func (s *Schema) BitWidths() (bits []uint, suffix []int) { return s.bits, s.bitSuffix }

// SpaceSize returns ||R|| = prod |A_i|, the size of the relation scheme's
// cross-product space, as an arbitrary-precision integer. With 15 attributes
// this routinely exceeds 64 bits, which is why per-tuple arithmetic in this
// repository is mixed radix: over digits, or over the split-ordinal form
// (Split) where the final attributes share one machine word.
func (s *Schema) SpaceSize() *big.Int {
	size := big.NewInt(1)
	var tmp big.Int
	for _, d := range s.domains {
		tmp.SetUint64(d.Size)
		size.Mul(size, &tmp)
	}
	return size
}

// FlatSpace returns ||R|| as a uint64 when the cross-product space fits in
// 64 bits, enabling the flat-ordinal fast path (phi values as single machine
// words). ok is false when the space exceeds 64 bits; callers must then use
// the digit-wise mixed-radix arithmetic.
func (s *Schema) FlatSpace() (space uint64, ok bool) {
	if s.split != 0 {
		return 0, false
	}
	return s.space, true
}

// FlatWeights returns the positional weights of the flat-ordinal fast path:
// weights[i] = prod_{j>i} |A_j|, so phi(t) = sum_i t[i]*weights[i]. The
// returned slice is owned by the schema and must not be modified. ok is
// false when the space exceeds 64 bits.
func (s *Schema) FlatWeights() (weights []uint64, ok bool) {
	if s.split != 0 {
		return nil, false
	}
	return s.weights, true
}

// Split returns the schema's split-ordinal form: at is the first attribute
// of the longest run of final attributes whose radix product fits in 64
// bits, weights[i] (for i >= at) the positional weight prod_{j>i} |A_j| of
// attribute i within that suffix, and space the suffix's size W =
// weights[at]·|A_at|. Digits at..n-1 of a tuple are then one ordinal below
// W. A flat schema splits at 0, where weights and space are FlatWeights and
// FlatSpace. weights has one entry per attribute, zero below at; it is
// owned by the schema and must not be modified.
func (s *Schema) Split() (at int, weights []uint64, space uint64) {
	return s.split, s.weights, s.space
}

// String renders the schema compactly, e.g. "(dept:8, job:16, years:64)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range s.domains {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", d.Name, d.Size)
	}
	b.WriteByte(')')
	return b.String()
}

// AttrIndex returns the position of the attribute with the given name, or
// -1 if no such attribute exists.
func (s *Schema) AttrIndex(name string) int {
	for i, d := range s.domains {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two schemas have identical domains in identical
// order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.domains) != len(o.domains) {
		return false
	}
	for i, d := range s.domains {
		if d != o.domains[i] {
			return false
		}
	}
	return true
}
