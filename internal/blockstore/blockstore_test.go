package blockstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
)

func testSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "dept", Size: 8},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "hours", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
}

func newStore(t testing.TB, codec core.Codec, pageSize int) *Store {
	t.Helper()
	return newSchemaStore(t, testSchema(t), codec, pageSize)
}

// newSchemaStore is newStore over a schema of the caller's.
func newSchemaStore(t testing.TB, schema *relation.Schema, codec core.Codec, pageSize int) *Store {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	return poolStore(t, schema, codec, pool)
}

// poolStore is New for a test: it fails t on error and, once the test is
// over, fails it again if the pool still holds a pinned frame or the store
// a live snapshot — every read and scan must give back what it took, on
// its error paths as much as on its success path. The tests build their
// stores through it.
func poolStore(t testing.TB, schema *relation.Schema, codec core.Codec, pool *buffer.Pool) *Store {
	t.Helper()
	s, err := New(schema, codec, pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n := s.pool.PinnedFrames(); n != 0 {
			t.Errorf("%d buffer-pool frames still pinned at the end of the test", n)
		}
		if n := s.LiveSnapshots(); n != 0 {
			t.Errorf("%d snapshots still live at the end of the test", n)
		}
	})
	return s
}

func randomTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
		}
	}
	s.SortTuples(tuples)
	return tuples
}

func TestBulkLoadRoundTrip(t *testing.T) {
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 512)
			tuples := randomTuples(t, 1000, 1)
			refs, err := s.BulkLoadContext(context.Background(), tuples)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) != s.NumBlocks() {
				t.Fatalf("%d refs for %d blocks", len(refs), s.NumBlocks())
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			var got []relation.Tuple
			if err := s.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
				got = append(got, ts...)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tuples) {
				t.Fatalf("scanned %d tuples, loaded %d", len(got), len(tuples))
			}
			sch := s.Schema()
			for i := range got {
				if sch.Compare(got[i], tuples[i]) != 0 {
					t.Fatalf("tuple %d mismatch: %v vs %v", i, got[i], tuples[i])
				}
			}
			// Every ref's First must equal its block's first tuple.
			for _, ref := range refs {
				blk, err := s.decodeBlock(ref.Page, nil)
				if err != nil {
					t.Fatal(err)
				}
				if sch.Compare(blk[0], ref.First) != 0 || len(blk) != ref.Count {
					t.Fatalf("ref %v does not describe its block", ref)
				}
			}
		})
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 10, 2)
	tuples[0], tuples[9] = tuples[9], tuples[0]
	if _, err := s.BulkLoadContext(context.Background(), tuples); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 50, 3)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BulkLoadContext(context.Background(), tuples); err == nil {
		t.Fatal("second bulk load accepted")
	}
}

func TestAVQUsesFewerBlocksThanRaw(t *testing.T) {
	tuples := randomTuples(t, 5000, 4)
	raw := newStore(t, core.CodecRaw, 512)
	avq := newStore(t, core.CodecAVQ, 512)
	if _, err := raw.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := avq.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if avq.NumBlocks() >= raw.NumBlocks() {
		t.Fatalf("AVQ blocks %d >= raw blocks %d", avq.NumBlocks(), raw.NumBlocks())
	}
	t.Logf("raw=%d avq=%d blocks (%.1f%% reduction)",
		raw.NumBlocks(), avq.NumBlocks(),
		100*(1-float64(avq.NumBlocks())/float64(raw.NumBlocks())))
}

func TestInsertIntoBlock(t *testing.T) {
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			for _, runTuples := range []bool{false, true} {
				t.Run(fmt.Sprintf("runTuples=%v", runTuples), func(t *testing.T) {
					testInsertIntoBlock(t, codec, runTuples)
				})
			}
		})
	}
}

// testInsertIntoBlock is one TestInsertIntoBlock case: the mutation result
// names the home block, and carries tuples exactly when runTuples is on.
func testInsertIntoBlock(t *testing.T, codec core.Codec, runTuples bool) {
	s := newStore(t, codec, 512)
	s.SetRunTuples(runTuples)
	tuples := randomTuples(t, 200, 5)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	target := refs[len(refs)/2]
	ins := target.First.Clone()
	// A tuple just above the block's first tuple lands inside it.
	ins[len(ins)-1] = (ins[len(ins)-1] + 1) % 4096
	res, err := s.Insert(ins)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	if runTuples {
		want = target.Count
	}
	if res.Old.Page != target.Page || len(res.Old.Tuples) != want {
		t.Fatalf("insert replaced page %d (%d tuples), want home block %d (%d tuples)",
			res.Old.Page, len(res.Old.Tuples), target.Page, want)
	}
	after := 0
	for _, run := range res.New {
		after += len(run.Tuples)
	}
	if runTuples {
		want++
	}
	if len(res.New) == 0 || after != want {
		t.Fatalf("insert handed back %d blocks holding %d tuples, want %d", len(res.New), after, want)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	count := 0
	s.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		return true
	})
	if count != len(tuples)+1 {
		t.Fatalf("store has %d tuples, want %d", count, len(tuples)+1)
	}
}

func TestInsertForcesSplit(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 256) // small page to force splits quickly
	tuples := randomTuples(t, 100, 6)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumBlocks()
	// Hammer one block until it must split. Rewrites are copy-on-write, so
	// each mutation reports the block's new page.
	rng := rand.New(rand.NewSource(7))
	split := false
	for i := 0; i < 200 && !split; i++ {
		tu := refs[0].First.Clone()
		tu[4] = uint64(rng.Intn(4096))
		res, err := s.Insert(tu)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.New) > 1 {
			split = true
		}
		if err := s.Check(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if !split {
		t.Fatal("no split after 200 inserts into one block")
	}
	if s.NumBlocks() <= before {
		t.Fatalf("block count %d did not grow from %d", s.NumBlocks(), before)
	}
}

func TestDeleteFromBlock(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	s.SetRunTuples(true)
	tuples := randomTuples(t, 300, 8)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	// Delete a tuple that exists: the store finds its block itself.
	victim := tuples[137]
	var home storage.PageID
	s.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		for _, tu := range ts {
			if s.Schema().Compare(tu, victim) == 0 {
				home = id
				return false
			}
		}
		return true
	})
	if ok, err := s.Contains(victim); err != nil || !ok {
		t.Fatalf("Contains(victim) = %v, %v", ok, err)
	}
	res, found, err := s.Delete(victim)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if res.Old.Page != home {
		t.Fatalf("delete rewrote page %d, the tuple lived on %d", res.Old.Page, home)
	}
	if len(res.New) != 1 || len(res.New[0].Tuples) != len(res.Old.Tuples)-1 {
		t.Fatalf("block should shrink by one, not vanish: %d blocks after", len(res.New))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Delete a tuple that does not exist.
	phantom := relation.Tuple{7, 15, 63, 63, 4095}
	if ok, err := s.Contains(phantom); err != nil || ok {
		t.Fatalf("Contains(phantom) = %v, %v", ok, err)
	}
	_, found, err = s.Delete(phantom)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("phantom delete reported found")
	}
}

func TestDeleteEmptiesBlock(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 100, 9)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	first := refs[0]
	blk, err := s.decodeBlock(first.Page, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := s.NumBlocks()
	cur := first.Page
	for i, tu := range blk {
		res, found, err := s.Delete(tu)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", i, found, err)
		}
		if res.Old.Page != cur {
			t.Fatalf("delete %d rewrote page %d, want %d", i, res.Old.Page, cur)
		}
		if i == len(blk)-1 {
			if len(res.New) != 0 {
				t.Fatalf("last delete did not remove block: %+v", res)
			}
		} else {
			// Copy-on-write: follow the block to its new page.
			cur = res.New[0].Page
		}
	}
	if s.NumBlocks() != before-1 {
		t.Fatalf("blocks = %d, want %d", s.NumBlocks(), before-1)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Blocks(), cur) {
		t.Fatal("removed block still in the layout")
	}
}

func TestComputeStats(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	tuples := randomTuples(t, 1000, 11)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	st, err := s.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != 1000 {
		t.Fatalf("stats tuples = %d", st.Tuples)
	}
	if st.Blocks != s.NumBlocks() {
		t.Fatalf("stats blocks = %d, want %d", st.Blocks, s.NumBlocks())
	}
	if st.RawDataBytes != 1000*s.Schema().RowSize() {
		t.Fatalf("raw bytes = %d", st.RawDataBytes)
	}
	if st.CompressionRatio() <= 0 {
		t.Fatalf("AVQ compression ratio = %.3f, want positive", st.CompressionRatio())
	}
	if st.StreamBytes > st.PageBytes {
		t.Fatalf("stream bytes %d exceed page bytes %d", st.StreamBytes, st.PageBytes)
	}
}

func TestRandomizedMutations(t *testing.T) {
	for _, codec := range []core.Codec{core.CodecRaw, core.CodecAVQ} {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 384)
			sch := s.Schema()
			tuples := randomTuples(t, 400, 12)
			if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			// Reference multiset of live tuples, keyed by string encoding.
			live := map[string]int{}
			for _, tu := range tuples {
				live[string(sch.EncodeTuple(nil, tu))]++
			}
			randTuple := func() relation.Tuple {
				return relation.Tuple{
					uint64(rng.Intn(8)), uint64(rng.Intn(16)),
					uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
				}
			}
			for op := 0; op < 300; op++ {
				tu := randTuple()
				key := string(sch.EncodeTuple(nil, tu))
				if rng.Intn(2) == 0 {
					if _, err := s.Insert(tu); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					live[key]++
				} else {
					_, found, err := s.Delete(tu)
					if err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					if found != (live[key] > 0) {
						t.Fatalf("op %d: store/reference disagree on %v", op, tu)
					}
					if found {
						live[key]--
						if live[key] == 0 {
							delete(live, key)
						}
					}
				}
				if op%50 == 0 {
					if err := s.Check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			// Final cross-check.
			got := map[string]int{}
			total := 0
			s.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
				for _, tu := range ts {
					got[string(sch.EncodeTuple(nil, tu))]++
					total++
				}
				return true
			})
			want := 0
			for k, n := range live {
				want += n
				if got[k] != n {
					t.Fatalf("tuple %x: store has %d, reference %d", k, got[k], n)
				}
			}
			if total != want {
				t.Fatalf("store has %d tuples, reference %d", total, want)
			}
		})
	}
}

func TestTupleTooLargeForPage(t *testing.T) {
	pager, _ := storage.NewMemPager(8)
	pool, _ := buffer.New(pager, nil, 4)
	if _, err := New(testSchema(t), core.CodecAVQ, pool); !errors.Is(err, core.ErrTupleTooLarge) {
		t.Fatalf("page smaller than a tuple: err = %v, want ErrTupleTooLarge", err)
	}
}

// TestNewRejectsBadCodec is the store's boundary of the codec byte: codec
// 2, 3 (the retired rep-only and delta-chain layouts) and 9 are refused
// with core.ErrBadCodec.
func TestNewRejectsBadCodec(t *testing.T) {
	pager, _ := storage.NewMemPager(512)
	pool, _ := buffer.New(pager, nil, 4)
	for _, c := range []core.Codec{2, 3, 9} {
		if _, err := New(testSchema(t), c, pool); !errors.Is(err, core.ErrBadCodec) {
			t.Errorf("codec %d: err = %v, want core.ErrBadCodec", c, err)
		}
	}
}

func TestRestore(t *testing.T) {
	pager, _ := storage.NewMemPager(512)
	pool, _ := buffer.New(pager, nil, 16)
	src := poolStore(t, testSchema(t), core.CodecAVQ, pool)
	tuples := randomTuples(t, 400, 20)
	if _, err := src.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	layout := src.Blocks()
	ctx := context.Background()
	ignore := func(storage.PageID, []relation.Tuple) {}

	// A second store over the same pool adopts the layout: at one worker and
	// at four, each block is offered to the visitor exactly once, in
	// clustered order, and its fence is captured from that same decode.
	for _, conc := range []int{1, 4} {
		dst := poolStore(t, testSchema(t), core.CodecAVQ, pool)
		dst.workers = conc
		var visited []storage.PageID
		count := 0
		if err := dst.Restore(ctx, layout, func(id storage.PageID, ts []relation.Tuple) {
			visited = append(visited, id)
			count += len(ts)
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(visited, layout) || count != len(tuples) {
			t.Fatalf("conc=%d: visited %v (%d tuples), want %v (%d)", conc, visited, count, layout, len(tuples))
		}
		if err := dst.Check(); err != nil {
			t.Fatal(err)
		}
		sn, want := dst.Snapshot(), src.Snapshot()
		for i := 0; i < sn.NumBlocks(); i++ {
			f, w := sn.Fence(i), want.Fence(i)
			if f.Count != w.Count || dst.schema.Compare(f.First, w.First) != 0 || dst.schema.Compare(f.Last, w.Last) != 0 {
				t.Fatalf("conc=%d: restored fence %d = %+v, encode-time fence %+v", conc, i, f, w)
			}
		}
		sn.Release()
		want.Release()
		if err := dst.Restore(ctx, layout, ignore); err == nil {
			t.Fatal("restore into non-empty store accepted")
		}
	}
	dup := poolStore(t, testSchema(t), core.CodecAVQ, pool)
	if err := dup.Restore(ctx, []storage.PageID{layout[0], layout[1], layout[0]}, ignore); err == nil {
		t.Fatal("duplicate layout accepted")
	}
	if dup.NumBlocks() != 0 {
		t.Fatal("rejected restore published blocks")
	}
}

// TestRestoreRejectsDisorder: the block list comes from a file; one whose
// decoded fences are not in φ order must never be published, or the fence
// search would silently miss tuples.
func TestRestoreRejectsDisorder(t *testing.T) {
	pager, _ := storage.NewMemPager(512)
	pool, _ := buffer.New(pager, nil, 16)
	src := poolStore(t, testSchema(t), core.CodecAVQ, pool)
	if _, err := src.BulkLoadContext(context.Background(), randomTuples(t, 400, 24)); err != nil {
		t.Fatal(err)
	}
	layout := src.Blocks()
	if len(layout) < 3 {
		t.Fatalf("need >= 3 blocks, have %d", len(layout))
	}
	slices.Reverse(layout[1:])
	for _, conc := range []int{1, 4} {
		dst := poolStore(t, testSchema(t), core.CodecAVQ, pool)
		dst.workers = conc
		visits := 0
		err := dst.Restore(context.Background(), layout, func(storage.PageID, []relation.Tuple) { visits++ })
		if !errors.Is(err, ErrCorruptBlock) {
			t.Fatalf("conc=%d: out-of-order layout: err = %v, want ErrCorruptBlock", conc, err)
		}
		if dst.NumBlocks() != 0 {
			t.Fatalf("conc=%d: rejected restore published %d blocks", conc, dst.NumBlocks())
		}
		if visits != 2 {
			t.Fatalf("conc=%d: visitor saw %d blocks before the disorder, want 2", conc, visits)
		}
	}
}

// TestRewriteBlockValidation: MergeRun is the store's batch rewrite; it
// refuses input it cannot place (none, or out of φ order) and otherwise
// edits the home block copy-on-write.
func TestRewriteBlockValidation(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	s.SetRunTuples(true)
	tuples := randomTuples(t, 100, 21)
	refs, err := s.BulkLoadContext(context.Background(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := s.decodeBlock(refs[0].Page, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MergeRun(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	bad := []relation.Tuple{blk[len(blk)-1], blk[0]}
	if _, _, err := s.MergeRun(bad); err == nil {
		t.Fatal("unsorted merge accepted")
	}
	if got := s.Blocks(); got[0] != refs[0].Page {
		t.Fatal("rejected merges changed the layout")
	}
	// A valid merge moves the block to a fresh page (copy-on-write) and
	// consumes only the tuples that belong to it.
	run := []relation.Tuple{blk[0], blk[1], refs[1].First, refs[len(refs)-1].First}
	res, n, err := s.MergeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("merge consumed %d tuples, want the 2 homed in block 0", n)
	}
	if res.Old.Page != refs[0].Page || len(res.Old.Tuples) != len(blk) {
		t.Fatalf("merge pre-image = page %d, %d tuples; want page %d, %d", res.Old.Page, len(res.Old.Tuples), refs[0].Page, len(blk))
	}
	if res.New[0].Page == refs[0].Page {
		t.Fatal("rewrite reused the original page; expected copy-on-write")
	}
	if slices.Contains(s.Blocks(), refs[0].Page) {
		t.Fatal("original page still in the layout after COW rewrite")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestResetStore(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 300, 22)); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 0 {
		t.Fatalf("blocks = %d after reset", s.NumBlocks())
	}
	// The store is reusable after Reset.
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 100, 23)); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsCorruption flips bytes on a loaded page and verifies the
// deep checker refuses the store, for every codec.
func TestCheckDetectsCorruption(t *testing.T) {
	for _, codec := range core.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			s := newStore(t, codec, 512)
			if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 500, 7)); err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err != nil {
				t.Fatalf("clean store: %v", err)
			}
			// Corrupt the middle of the first block's coded stream, behind
			// the pool's back, and drop the cache so Check rereads it.
			id := s.Blocks()[0]
			if err := s.pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			page := make([]byte, s.pool.PageSize())
			if err := s.pool.Pager().Read(id, page); err != nil {
				t.Fatal(err)
			}
			page[lenPrefix+10] ^= 0xff
			if err := s.pool.Pager().Write(id, page); err != nil {
				t.Fatal(err)
			}
			if err := s.Check(); err == nil {
				t.Fatal("Check accepted a corrupted block")
			}
		})
	}
}

// TestCheckDetectsHeaderLie rewrites the stream-length prefix to an
// impossible value and verifies the header validation catches it.
func TestCheckDetectsHeaderLie(t *testing.T) {
	s := newStore(t, core.CodecAVQ, 512)
	if _, err := s.BulkLoadContext(context.Background(), randomTuples(t, 200, 9)); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	if err := s.pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, s.pool.PageSize())
	if err := s.pool.Pager().Read(id, page); err != nil {
		t.Fatal(err)
	}
	page[0], page[1], page[2], page[3] = 0xff, 0xff, 0xff, 0xff
	if err := s.pool.Pager().Write(id, page); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err == nil {
		t.Fatal("Check accepted an impossible stream length")
	}
}
