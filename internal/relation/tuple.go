package relation

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDomainRange marks a tuple that does not fit its schema: wrong arity
// or an attribute ordinal outside its domain. ValidateTuple wraps it with
// the offending position so callers can dispatch with errors.Is.
var ErrDomainRange = errors.New("relation: value outside domain range")

// Tuple is a vector of attribute ordinals, one digit per attribute. Digit i
// must satisfy 0 <= t[i] < schema.Domain(i).Size. Tuples are interpreted as
// mixed-radix numbers: the paper's phi mapping (Eq. 2.2) is exactly the
// value of the tuple read as a number whose i-th digit has radix |A_i|.
type Tuple []uint64

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "<a1, a2, ..., an>".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('>')
	return b.String()
}

// ValidateTuple checks that the tuple has the schema's arity and that every
// digit lies within its domain. Domain violations wrap ErrDomainRange so
// callers can dispatch with errors.Is.
func (s *Schema) ValidateTuple(t Tuple) error {
	if len(t) != len(s.domains) {
		return fmt.Errorf("%w: tuple has %d attributes, schema has %d", ErrDomainRange, len(t), len(s.domains))
	}
	for i, v := range t {
		if v >= s.domains[i].Size {
			return fmt.Errorf("%w: attribute %d value %d out of domain [0,%d)", ErrDomainRange, i, v, s.domains[i].Size)
		}
	}
	return nil
}

// Compare orders two tuples lexicographically by attribute position. Because
// phi (Eq. 2.2) weights earlier attributes by the product of all later
// domain sizes, lexicographic order on digits is identical to numeric order
// on phi values; this is the total order "<" of Section 2.2 without ever
// materializing the (potentially enormous) ordinals.
//
// It returns -1 if a < b, 0 if a == b, and +1 if a > b. Both tuples must
// have the schema's arity.
func (s *Schema) Compare(a, b Tuple) int {
	for i := range s.domains {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// EncodeTuple appends the fixed-width big-endian byte representation of t to
// dst and returns the extended slice. Attribute i occupies
// s.AttrWidth(i) bytes; the total appended length is s.RowSize().
//
// This byte string is the unit over which the AVQ codec counts leading
// zeros, and is also the key format of the primary index (byte-wise
// lexicographic order on it equals Compare order).
func (s *Schema) EncodeTuple(dst []byte, t Tuple) []byte {
	for i, v := range t {
		w := s.widths[i]
		for shift := (w - 1) * 8; shift >= 0; shift -= 8 {
			dst = append(dst, byte(v>>uint(shift)))
		}
	}
	return dst
}

// DecodeTuple parses a fixed-width tuple from buf into a fresh Tuple. It
// returns an error if buf is shorter than s.RowSize().
func (s *Schema) DecodeTuple(buf []byte) (Tuple, error) {
	t := make(Tuple, len(s.domains))
	if err := s.DecodeTupleInto(t, buf); err != nil {
		return nil, err
	}
	return t, nil
}

// DecodeTupleInto parses a fixed-width tuple from buf into t, which must
// have the schema's arity. It is the allocation-free form of DecodeTuple
// used by the arena-backed decode kernels.
func (s *Schema) DecodeTupleInto(t Tuple, buf []byte) error {
	if len(buf) < s.rowSize {
		return fmt.Errorf("relation: need %d bytes to decode tuple, have %d", s.rowSize, len(buf))
	}
	pos := 0
	for i := range s.domains {
		var v uint64
		for j := 0; j < s.widths[i]; j++ {
			v = v<<8 | uint64(buf[pos])
			pos++
		}
		t[i] = v
	}
	return nil
}

// EncodeAttr appends the fixed-width big-endian byte form of a single
// attribute value to dst. It is used by secondary indexes, whose keys are
// single attribute values (Fig. 4.5).
func (s *Schema) EncodeAttr(dst []byte, attr int, v uint64) []byte {
	w := s.widths[attr]
	for shift := (w - 1) * 8; shift >= 0; shift -= 8 {
		dst = append(dst, byte(v>>uint(shift)))
	}
	return dst
}

// TuplesSorted reports whether tuples are in non-decreasing phi order:
// each tuple compares <= its successor, so duplicates are permitted.
func (s *Schema) TuplesSorted(tuples []Tuple) bool {
	for i := 1; i < len(tuples); i++ {
		if s.Compare(tuples[i-1], tuples[i]) > 0 {
			return false
		}
	}
	return true
}
