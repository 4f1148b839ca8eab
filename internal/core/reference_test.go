package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/ordinal"
	"repro/internal/relation"
)

// The reference decoder. It is written from the stream layout documented
// in codec.go and packed.go and from nothing else in the package: it
// allocates freely, parses every difference before applying any, does all
// ordinal arithmetic in big.Int (φ and φ⁻¹ are ordinal's big.Int oracles,
// which the walker never calls), and reads packed streams one bit at a
// time. It exists so the decode shapes — which all share one layout parse,
// one difference reader and one walk, and so can no longer be checked
// against each other — have an independent second opinion on which streams
// are valid and what they hold.

var errRefReject = errors.New("reference decoder: stream rejected")

// refRow parses one fixed-width big-endian row, rejecting out-of-radix
// digits.
func refRow(s *relation.Schema, row []byte) (relation.Tuple, bool) {
	t := make(relation.Tuple, s.NumAttrs())
	for i := range t {
		for j := 0; j < s.AttrWidth(i); j++ {
			t[i] = t[i]<<8 | uint64(row[0])
			row = row[1:]
		}
		if t[i] >= s.Domain(i).Size {
			return nil, false
		}
	}
	return t, true
}

// refBitWidth is the packed codec's field width for values in [0, size).
func refBitWidth(size uint64) int { return max(1, bits.Len64(size-1)) }

// refDecode decodes a block stream, or reports that it is not a valid
// one.
func refDecode(s *relation.Schema, buf []byte) ([]relation.Tuple, error) {
	if len(buf) < 7 || buf[0] != 0xA7 || buf[1] != 0 && buf[1] != 1 && buf[1] != 4 {
		return nil, errRefReject
	}
	end := len(buf) - 4
	if crc32.ChecksumIEEE(buf[:end]) != binary.BigEndian.Uint32(buf[end:]) {
		return nil, errRefReject
	}
	codec := Codec(buf[1])
	count64, w := binary.Uvarint(buf[2:end])
	if w <= 0 || count64 > 1<<24 {
		return nil, errRefReject
	}
	body := buf[2+w : end]
	if limit := uint64(len(body)); codec == CodecPacked && count64 > limit*8+8 ||
		codec != CodecPacked && count64 > limit {
		return nil, errRefReject
	}
	count, m, n := int(count64), s.RowSize(), s.NumAttrs()
	if count == 0 {
		if len(body) != 0 {
			return nil, errRefReject
		}
		return nil, nil
	}
	if codec == CodecRaw {
		if len(body) != count*m {
			return nil, errRefReject
		}
		out := make([]relation.Tuple, count)
		for i := range out {
			var ok bool
			if out[i], ok = refRow(s, body[i*m:(i+1)*m]); !ok {
				return nil, errRefReject
			}
		}
		return out, nil
	}

	// Anchor position and tuple.
	v, w := binary.Uvarint(body)
	if w <= 0 || v >= count64 {
		return nil, errRefReject
	}
	mid, body := int(v), body[w:]
	if len(body) < m {
		return nil, errRefReject
	}
	rep, ok := refRow(s, body[:m])
	if !ok {
		return nil, errRefReject
	}
	body = body[m:]

	// The count-1 stored differences, in stream order, as ordinals.
	diffs := make([]*big.Int, count-1)
	if codec == CodecPacked {
		pos := 0 // bit position
		read := func(width int) (uint64, bool) {
			if pos+width > len(body)*8 {
				return 0, false
			}
			var v uint64
			for ; width > 0; width-- {
				v = v<<1 | uint64(body[pos/8]>>(7-pos%8)&1)
				pos++
			}
			return v, true
		}
		for k := range diffs {
			lz, ok := read(refBitWidth(uint64(n) + 1))
			if !ok || lz > uint64(n) {
				return nil, errRefReject
			}
			d := make(relation.Tuple, n)
			for i := int(lz); i < n; i++ {
				if d[i], ok = read(refBitWidth(s.Domain(i).Size)); !ok || d[i] >= s.Domain(i).Size {
					return nil, errRefReject
				}
			}
			diffs[k] = ordinal.Phi(s, d)
		}
		if len(body)*8-pos >= 8 {
			return nil, errRefReject
		}
	} else {
		for k := range diffs {
			if len(body) == 0 || int(body[0]) > m || len(body) < 1+m-int(body[0]) {
				return nil, errRefReject
			}
			lz := int(body[0])
			row := append(make([]byte, lz), body[1:1+m-lz]...)
			d, ok := refRow(s, row)
			if !ok {
				return nil, errRefReject
			}
			diffs[k], body = ordinal.Phi(s, d), body[1+m-lz:]
		}
		if len(body) != 0 {
			return nil, errRefReject
		}
	}

	// Stored difference k belongs to position k before the anchor and
	// position k+1 after it.
	phis := make([]*big.Int, count)
	phis[mid] = ordinal.Phi(s, rep)
	for i := mid - 1; i >= 0; i-- {
		phis[i] = new(big.Int).Sub(phis[i+1], diffs[i])
	}
	for i := mid + 1; i < count; i++ {
		phis[i] = new(big.Int).Add(phis[i-1], diffs[i-1])
	}
	out := make([]relation.Tuple, count)
	for i, phi := range phis {
		if phi.Sign() < 0 || phi.Cmp(s.SpaceSize()) >= 0 {
			return nil, errRefReject
		}
		var err error
		if out[i], err = ordinal.PhiInverse(s, phi); err != nil {
			return nil, errRefReject
		}
	}
	return out, nil
}

// rechecksum returns payload (a stream minus its CRC) with a fresh CRC, so
// a mutated stream reaches the payload parsers instead of dying at the
// checksum.
func rechecksum(payload []byte) []byte {
	out := append([]byte(nil), payload...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// refPhiSpan is PhiSpan's definition over a decoded φ sequence.
func refPhiSpan(phis []uint64, loPhi, hiPhi uint64) (from, to int) {
	from, to = len(phis), len(phis)
	for i := len(phis) - 1; i >= 0; i-- {
		if phis[i] > hiPhi {
			to = i
		}
		if phis[i] >= loPhi {
			from = i
		}
	}
	return min(from, to), to
}

func sameTuples(s *relation.Schema, got, want []relation.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if s.Compare(got[i], want[i]) != 0 {
			return false
		}
	}
	return true
}

// checkShapesAgainstReference holds every decode shape to the reference
// decoder on one (arbitrary) stream:
//
//   - the shapes that consume the whole payload — full decode, span
//     [0,count), the φ slab and an un-exited φ span — accept exactly the
//     streams the reference accepts (the φ shapes additionally require a
//     φ-sorted block, which the reference result is checked for);
//   - on an accepted stream every shape, partial ones included, agrees
//     with the reference tuple-for-tuple and φ-for-φ;
//   - on a rejected stream the partial shapes (a sub-span, one tuple, a
//     search, raw's binary-searched φ span) see only part of the payload,
//     so they may accept; they must not panic;
//   - on any stream the one-walk span (PhiSpanSlab) accepts exactly when
//     the two-walk span (PhiSpan, then DecodeTupleSpanArena) does, with
//     the same tuples.
func checkShapesAgainstReference(t *testing.T, s *relation.Schema, data []byte) {
	t.Helper()
	want, refErr := refDecode(s, data)
	a := NewArena() // reused across the partial shapes; got and span own theirs
	agree := func(shape string, err error, wantOK bool) {
		t.Helper()
		if (err == nil) != wantOK {
			t.Fatalf("%s: err = %v, reference accepts = %v (tuple decode: %v)", shape, err, wantOK, refErr)
		}
	}

	got, err := DecodeBlockArena(s, data, nil)
	agree("full", err, refErr == nil)
	count, isRaw := 0, false
	if info, ierr := Inspect(data); ierr == nil {
		count, isRaw = info.TupleCount, info.Codec == CodecRaw
	} else if refErr == nil {
		t.Fatalf("reference accepts but Inspect fails: %v", ierr)
	}
	span, err := DecodeTupleSpanArena(s, data, 0, count, nil)
	agree("span [0,count)", err, refErr == nil)

	space, flat := s.FlatSpace()
	var wantPhis []uint64
	sorted := refErr == nil
	if flat && refErr == nil {
		for i, tu := range want {
			phi := ordinal.Phi(s, tu).Uint64()
			sorted = sorted && (i == 0 || phi >= wantPhis[i-1])
			wantPhis = append(wantPhis, phi)
		}
	}
	if flat {
		a.Reset()
		phis, err := DecodeBlockPhis(s, data, a)
		agree("φ slab", err, sorted)
		if err == nil {
			for i := range wantPhis {
				if phis[i] != wantPhis[i] {
					t.Fatalf("φ slab[%d] = %d, reference %d", i, phis[i], wantPhis[i])
				}
			}
		}
		a.Reset()
		from, to, err := PhiSpan(s, data, 0, math.MaxUint64, a)
		if !isRaw || sorted {
			agree("un-exited φ span", err, sorted)
		}
		if err == nil && sorted && (from != 0 || to != len(want)) {
			t.Fatalf("un-exited φ span = [%d,%d), want [0,%d)", from, to, len(want))
		}
		// The one-walk span against the two-walk span, on any stream.
		checkSpanWalksAgree(t, s, data, 0, math.MaxUint64)
		checkSpanWalksAgree(t, s, data, space/3, space/2)
	}

	if refErr != nil {
		// Partial shapes on a stream the reference rejects: no panics.
		for _, idx := range []int{0, count / 2, count - 1} {
			a.Reset()
			_, _ = DecodeTupleAtArena(s, data, idx, a)
			_, _ = DecodeTupleSpanArena(s, data, idx, min(idx+2, count), a)
		}
		_, _ = SearchBlockArena(s, data, func(relation.Tuple) bool { return false }, a)
		if flat {
			_, _, _ = PhiSpan(s, data, space/3, space/2, a)
		}
		return
	}

	if !sameTuples(s, got, want) {
		t.Fatalf("full decode disagrees with the reference:\n got %v\nwant %v", got, want)
	}
	if !sameTuples(s, span, want) {
		t.Fatalf("span [0,count) disagrees with the reference")
	}
	checkRestartShapes(t, s, data, want)
	for idx := range want {
		a.Reset()
		tu, err := DecodeTupleAtArena(s, data, idx, a)
		if err != nil || s.Compare(tu, want[idx]) != 0 {
			t.Fatalf("tuple at %d = %v, %v; reference %v", idx, tu, err, want[idx])
		}
		to := idx + (idx*7+3)%(len(want)-idx+1)
		sub, err := DecodeTupleSpanArena(s, data, idx, to, a)
		if err != nil || !sameTuples(s, sub, want[idx:to]) {
			t.Fatalf("span [%d,%d) = %v, %v; reference %v", idx, to, sub, err, want[idx:to])
		}
	}
	if len(want) == 0 || !s.TuplesSorted(want) {
		return
	}
	for _, pivot := range []relation.Tuple{want[0], want[len(want)/2], want[len(want)-1]} {
		a.Reset()
		pos, err := SearchBlockArena(s, data, func(x relation.Tuple) bool { return s.Compare(x, pivot) >= 0 }, a)
		wantPos := 0
		for wantPos < len(want) && s.Compare(want[wantPos], pivot) < 0 {
			wantPos++
		}
		if err != nil || pos != wantPos {
			t.Fatalf("search for %v = %d, %v; reference %d", pivot, pos, err, wantPos)
		}
	}
	if flat {
		mid := wantPhis[len(wantPhis)/2]
		for _, r := range [][2]uint64{{0, mid}, {mid, mid}, {mid + 1, space - 1}, {wantPhis[0], wantPhis[0]}} {
			a.Reset()
			from, to, err := PhiSpan(s, data, r[0], r[1], a)
			wantFrom, wantTo := refPhiSpan(wantPhis, r[0], r[1])
			if err != nil || from != wantFrom || to != wantTo {
				t.Fatalf("φ span [%d,%d] = [%d,%d), %v; reference [%d,%d)", r[0], r[1], from, to, err, wantFrom, wantTo)
			}
			a.Reset()
			phis, err := PhiSpanSlab(s, data, r[0], r[1], nil, a)
			if err != nil || !slices.Equal(phis, wantPhis[wantFrom:wantTo]) {
				t.Fatalf("φ span slab [%d,%d] = %v, %v; reference %v", r[0], r[1], phis, err, wantPhis[wantFrom:wantTo])
			}
			checkSpanWalksAgree(t, s, data, r[0], r[1])
		}
	}
}
