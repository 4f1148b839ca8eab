package blockstore

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestReadBlockArenaMatchesReadBlock checks the arena read path against
// the allocating one: both must be element-equal to a fresh decode.
func TestReadBlockArenaMatchesReadBlock(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 600, 42)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	a := core.NewArena()
	for b := 0; b < sn.NumBlocks(); b++ {
		want, err := sn.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		got, err := sn.ReadBlockArena(b, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d tuples, want %d", b, len(got), len(want))
		}
		for i := range want {
			if s.schema.Compare(got[i], want[i]) != 0 {
				t.Fatalf("block %d tuple %d: %v != %v", b, i, got[i], want[i])
			}
		}
	}
}

// TestEncodeBufferReuse pins the mutation path's encode-buffer behaviour:
// the load pipeline codes into per-chunk streams and leaves the buffer
// alone; mutations re-encode blocks through it, and after a warm-up
// mutation sizes it, further mutations must reuse the capacity.
func TestEncodeBufferReuse(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 400, 44)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	if s.encBuf != nil {
		t.Fatal("bulk load coded through the mutation path's encode buffer")
	}
	if _, err := s.Insert(refs[0].First); err != nil {
		t.Fatal(err)
	}
	steady := cap(s.encBuf)
	for i := 1; i < 32; i++ {
		ref := refs[i%len(refs)]
		if _, err := s.Insert(ref.First); err != nil {
			t.Fatal(err)
		}
	}
	if cap(s.encBuf) != steady {
		t.Fatalf("encode buffer kept growing across mutations: %d -> %d", steady, cap(s.encBuf))
	}
}

// TestEncodeChunksExactCapacity checks the load pipeline: chunk streams
// are preallocated from the Sizer's exact accounting, so the encoder never
// reallocates and len == cap on every stream.
func TestEncodeChunksExactCapacity(t *testing.T) {
	for _, codec := range core.Codecs() {
		s := newStore(t, codec, 512)
		s.workers = 4
		tuples := randomTuples(t, 800, 45)
		costs, err := s.pairCosts(tuples)
		if err != nil {
			t.Fatal(err)
		}
		chunks, sizes, err := core.NewSizer(codec, s.schema).Chunk(tuples, costs, s.capacity())
		if err != nil {
			t.Fatal(err)
		}
		streams, err := s.encodeChunks(chunks, sizes)
		if err != nil {
			t.Fatal(err)
		}
		for i, stream := range streams {
			if len(stream) != sizes[i] {
				t.Errorf("%v chunk %d: stream %d bytes, sizer predicted %d", codec, i, len(stream), sizes[i])
			}
			if cap(stream) != len(stream) {
				t.Errorf("%v chunk %d: stream reallocated (len %d, cap %d)", codec, i, len(stream), cap(stream))
			}
		}
	}
}
