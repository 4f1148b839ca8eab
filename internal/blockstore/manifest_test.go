package blockstore

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

// modelEntry is one block of TestManifestModel's flat-slice oracle.
type modelEntry struct {
	id    storage.PageID
	fence Fence
}

// spliceArgs splits model entries into a splice's page and fence lists.
func spliceArgs(es []modelEntry) ([]storage.PageID, []Fence) {
	ids := make([]storage.PageID, len(es))
	fences := make([]Fence, len(es))
	for i, e := range es {
		ids[i], fences[i] = e.id, e.fence
	}
	return ids, fences
}

// editBytesPerInsert bulk-loads a store of n random tuples on pageSize
// pages and returns its block count and the bytes a steady-state insert
// allocates. The inserts land next to a few seed tuples; a warm-up round
// splits the seeds' packed blocks, so every measured insert edits.
func editBytesPerInsert(t *testing.T, n, pageSize int) (blocks int, perInsert uint64) {
	s := newStore(t, core.CodecAVQ, pageSize)
	tuples := randomTuples(t, n, 73)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	seeds := make([]relation.Tuple, 8)
	for i := range seeds {
		seeds[i] = tuples[rng.Intn(len(tuples))]
	}
	insert := func() {
		tu := seeds[rng.Intn(len(seeds))].Clone()
		tu[4] = uint64(rng.Intn(4096))
		if _, err := s.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 {
		insert()
	}
	const inserts = 400
	blocks = s.NumBlocks()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for range inserts {
		insert()
	}
	runtime.ReadMemStats(&m1)
	if s.NumBlocks() != blocks {
		t.Fatalf("blocks %d -> %d: the measured inserts split, not steady state", blocks, s.NumBlocks())
	}
	return blocks, (m1.TotalAlloc - m0.TotalAlloc) / inserts
}

// TestEditBytesIndependentOfBlocks: a publish copies the chunk-pointer
// array and the one manifest chunk an edit writes, not the whole layout,
// so the bytes a steady-state insert allocates do not grow with the table:
// at ~20 and ~500 blocks they differ by less than one chunk.
func TestEditBytesIndependentOfBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race, so pooled arenas are re-grown")
	}
	small, smallBytes := editBytesPerInsert(t, 10000, 2048)
	large, largeBytes := editBytesPerInsert(t, 260000, 2048)
	chunkBytes := uint64(unsafe.Sizeof(chunk{}))
	t.Logf("%d bytes per insert at %d blocks, %d at %d blocks; a chunk is %d bytes", smallBytes, small, largeBytes, large, chunkBytes)
	if small > 40 || large < 400 {
		t.Fatalf("stores of %d and %d blocks, want ~20 and ~500", small, large)
	}
	if diff := max(smallBytes, largeBytes) - min(smallBytes, largeBytes); diff >= chunkBytes {
		t.Fatalf("bytes per insert grow by %d from %d to %d blocks, at least one %d-byte chunk: a publish copies more than the chunk it edits", diff, small, large, chunkBytes)
	}
}

// TestManifestModel applies random splices — one block for one (the edit
// path), one for two or three (a split), one for none (a remove), none
// for some at the end — and private appends to the chunked manifest,
// against a flat slice per version. Every earlier version is held and
// re-checked after each step, so an edit that wrote through a published
// chunk shows up in the version that shared it. Positions favour a
// chunk's first and last entries and the last block, and the run grows
// past three chunks, shrinks to zero blocks and grows back. A same-count
// splice must copy one chunk and the chunk-pointer array: at most
// n/chunkLen + 1 + chunkLen entries.
func TestManifestModel(t *testing.T) {
	type version struct {
		m    *manifest
		want []modelEntry
	}
	rng := rand.New(rand.NewSource(31))
	serial := 0
	fresh := func(k int) []modelEntry {
		out := make([]modelEntry, k)
		for i := range out {
			serial++
			out[i] = modelEntry{storage.PageID(serial), Fence{Count: serial}}
		}
		return out
	}
	check := func(step int, v version) {
		t.Helper()
		m := v.m
		if m.n != len(v.want) {
			t.Fatalf("step %d: manifest has %d blocks, model %d", step, m.n, len(v.want))
		}
		if want := (m.n + chunkLen - 1) / chunkLen; len(m.chunks) != want {
			t.Fatalf("step %d: %d chunks for %d blocks, want %d (every chunk full but the last)", step, len(m.chunks), m.n, want)
		}
		for i, e := range v.want {
			if m.block(i) != e.id || m.fence(i).Count != e.fence.Count {
				t.Fatalf("step %d: block %d is (%d, %d), model (%d, %d)", step, i, m.block(i), m.fence(i).Count, e.id, e.fence.Count)
			}
		}
	}
	// pick returns a splice position in [0, n), favouring chunk edges.
	pick := func(n int) int {
		c := rng.Intn((n + chunkLen - 1) / chunkLen)
		switch rng.Intn(4) {
		case 0:
			return c * chunkLen
		case 1:
			return min(c*chunkLen+chunkLen-1, n-1)
		case 2:
			return n - 1
		}
		return rng.Intn(n)
	}

	first := version{m: &manifest{}, want: fresh(3*chunkLen + 5)}
	for _, e := range first.want {
		first.m.append(e.id, e.fence)
	}
	versions := []version{first}
	// The run mixes every splice for 150 steps, then only removes until
	// no block is left, then mostly splits until it spans three chunks.
	const mix, shrink, grow, done = 0, 1, 2, 3
	phase := mix
	var edgeFirst, edgeLast, emptiedLast, reachedZero bool
	for step := 0; ; step++ {
		cur := versions[len(versions)-1]
		n := len(cur.want)
		switch {
		case phase == mix && step == 150:
			phase = shrink
		case phase == shrink && n == 0:
			phase, reachedZero = grow, true
		case phase == grow && n > 3*chunkLen:
			phase = done
		}
		if phase == done {
			break
		}
		var next version
		switch r := rng.Intn(10); {
		case n == 0 || phase == mix && r == 0:
			// Blocks added at the end, as into an empty store.
			add := fresh(1 + rng.Intn(2))
			ids, fences := spliceArgs(add)
			next.m = cur.m.spliced(n, 0, ids, fences)
			next.want = append(slices.Clone(cur.want), add...)
		case phase == mix && r == 1:
			// A private rebuild by append, as Restore and BulkLoad build.
			next.m = &manifest{}
			next.want = append(slices.Clone(cur.want), fresh(rng.Intn(3))...)
			for _, e := range next.want {
				next.m.append(e.id, e.fence)
			}
		default:
			at := pick(n)
			edgeFirst = edgeFirst || at%chunkLen == 0
			edgeLast = edgeLast || at%chunkLen == chunkLen-1
			k := 1 // an edit
			switch r2 := rng.Intn(10); {
			case phase == shrink || phase == mix && r2 < 2:
				k = 0 // a remove
			case phase == grow && r2 < 7 || r2 < 5:
				k = 2 + rng.Intn(2) // a split
			}
			add := fresh(k)
			ids, fences := spliceArgs(add)
			next.m = cur.m.spliced(at, 1, ids, fences)
			next.want = slices.Concat(cur.want[:at], add, cur.want[at+1:])
			emptiedLast = emptiedLast || len(next.m.chunks) < len(cur.m.chunks)
			if k == 1 {
				copied := 0
				for c := range next.m.chunks {
					if next.m.chunks[c] != cur.m.chunks[c] {
						copied++
					}
				}
				if entries := copied*chunkLen + len(next.m.chunks); copied != 1 || entries > n/chunkLen+1+chunkLen {
					t.Fatalf("step %d: a same-count splice at %d of %d copied %d chunks (%d entries)", step, at, n, copied, entries)
				}
			}
		}
		versions = append(versions, next)
		for _, v := range versions {
			check(step, v)
		}
	}
	if !edgeFirst || !edgeLast || !emptiedLast || !reachedZero {
		t.Fatalf("coverage: chunk-first edit %v, chunk-last edit %v, last chunk emptied %v, zero blocks %v",
			edgeFirst, edgeLast, emptiedLast, reachedZero)
	}
}

// BenchmarkPublish is the edit path's manifest publish — a same-count
// splice — at a table's block count; B/op is the bytes one publish copies.
func BenchmarkPublish(b *testing.B) {
	for _, n := range []int{32, 512, 2048} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			m := &manifest{}
			for i := range n {
				m.append(storage.PageID(i), Fence{Count: i})
			}
			ids := []storage.PageID{storage.PageID(n)}
			fences := []Fence{{Count: n}}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				m = m.spliced(i*7919%n, 1, ids, fences)
			}
		})
	}
}
