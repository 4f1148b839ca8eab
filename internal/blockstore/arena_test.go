package blockstore

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
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
// alone; mutations edit or re-encode blocks through it, and after a warm-up
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
		streams, _, err := s.encodeChunks(chunks, sizes)
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

// TestInsertAllocatesNoSlab: with run tuples off (a table without
// secondary indexes), a steady-state single-tuple insert decodes its home
// block into a pooled arena and edits the coded stream, so it allocates no
// tuple slab — a small fraction of one block's slab bytes per insert.
func TestInsertAllocatesNoSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race, so pooled arenas are re-grown")
	}
	s := newStore(t, core.CodecAVQ, 8192)
	tuples := randomTuples(t, 20000, 46)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	slab := len(tuples) / s.NumBlocks() * (s.schema.NumAttrs()*8 + 24)
	rng := rand.New(rand.NewSource(47))
	insert := func() {
		tu := relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
		if _, err := s.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	// Bulk-loaded blocks are packed full, so the first insert into each
	// splits it; after that every block has slack and inserts edit.
	for range 400 {
		insert()
	}
	const n = 500
	blocks := s.NumBlocks()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for range n {
		insert()
	}
	runtime.ReadMemStats(&m1)
	if s.NumBlocks() != blocks {
		t.Fatalf("blocks %d -> %d: the measured inserts split, not steady state", blocks, s.NumBlocks())
	}
	perInsert := (m1.TotalAlloc - m0.TotalAlloc) / n
	t.Logf("%d bytes allocated per insert; one block's tuple slab is %d bytes", perInsert, slab)
	if perInsert >= uint64(slab)/8 {
		t.Fatalf("%d bytes allocated per insert, at least an eighth of a %d-byte tuple slab", perInsert, slab)
	}
}
