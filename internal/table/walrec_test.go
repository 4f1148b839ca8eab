package table

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestDecodeTupleRecBoundsClaimedCount: a replayed record's tuple count is
// a claim, checked by the record's CRC only against accidental damage.
// Replay must not allocate for more tuples than the body could hold (at
// least one byte per digit), so a 3-byte body claiming 2^20 tuples must
// be refused before it reserves 24 MiB of tuple headers.
func TestDecodeTupleRecBoundsClaimedCount(t *testing.T) {
	tb := newTable(t, core.CodecAVQ, nil)
	body := binary.AppendUvarint(nil, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tb.decodeTupleRec(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body claiming 2^20 tuples in 3 bytes was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte body allocated %d bytes", len(body), grew)
	}
}

// FuzzDecodeTupleRec: whatever the body, decodeTupleRec must not panic or
// allocate beyond the body's size, and a body it accepts holds exactly
// the tuples it returns: re-encoding them decodes to the same tuples.
func FuzzDecodeTupleRec(f *testing.F) {
	tb := newTable(f, core.CodecAVQ, nil)
	arity := tb.schema.NumAttrs()
	for _, tuples := range [][]relation.Tuple{nil, randomTuples(f, 1, 1), randomTuples(f, 16, 2)} {
		f.Add(tb.encodeTupleRec(recInsertBatch, tuples...)[1:])
	}
	f.Add(binary.AppendUvarint(nil, 1<<20))
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, body []byte) {
		tuples, err := tb.decodeTupleRec(body)
		if err != nil {
			return
		}
		if len(tuples)*arity > len(body) {
			t.Fatalf("%d tuples of arity %d from %d bytes", len(tuples), arity, len(body))
		}
		again, err := tb.decodeTupleRec(tb.encodeTupleRec(recInsertBatch, tuples...)[1:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if len(again) != len(tuples) {
			t.Fatalf("re-encoded record decodes to %d tuples, want %d", len(again), len(tuples))
		}
		for i := range tuples {
			if len(tuples[i]) != arity || !slices.Equal(tuples[i], again[i]) {
				t.Fatalf("tuple %d: %v re-decodes as %v", i, tuples[i], again[i])
			}
		}
	})
}
