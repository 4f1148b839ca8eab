package blockstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/relfile"
	"repro/internal/storage"
)

// pipelineStore builds a store over a fresh mem pager with the given
// worker count.
func pipelineStore(t testing.TB, codec core.Codec, pageSize, frames, workers int) (*Store, *storage.MemPager, *buffer.Pool) {
	t.Helper()
	return schemaStore(t, pipelineSchema(t), codec, pageSize, frames, workers)
}

// schemaStore is pipelineStore for any schema.
func schemaStore(t testing.TB, schema *relation.Schema, codec core.Codec, pageSize, frames, workers int) (*Store, *storage.MemPager, *buffer.Pool) {
	t.Helper()
	pager, err := storage.NewMemPager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.New(pager, nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	s := poolStore(t, schema, codec, pool)
	s.workers = workers
	return s, pager, pool
}

func pipelineSchema(t testing.TB) *relation.Schema {
	t.Helper()
	return relation.MustSchema(
		relation.Domain{Name: "a", Size: 6},
		relation.Domain{Name: "b", Size: 4000},
		relation.Domain{Name: "c", Size: 97},
		relation.Domain{Name: "d", Size: 12},
		relation.Domain{Name: "e", Size: 70000},
	)
}

func pipelineTuples(t testing.TB, n int, seed int64) []relation.Tuple {
	t.Helper()
	s := pipelineSchema(t)
	rng := rand.New(rand.NewSource(seed))
	out := make([]relation.Tuple, n)
	for i := range out {
		tu := make(relation.Tuple, s.NumAttrs())
		for a := 0; a < s.NumAttrs(); a++ {
			tu[a] = uint64(rng.Int63n(int64(s.Domain(a).Size)))
		}
		out[i] = tu
	}
	s.SortTuples(out)
	return out
}

// pageImages snapshots the raw bytes of every block page in clustered
// order, straight from the pager.
func pageImages(t *testing.T, s *Store, pager *storage.MemPager, pool *buffer.Pool) [][]byte {
	t.Helper()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, id := range s.Blocks() {
		buf := make([]byte, pager.PageSize())
		if err := pager.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// naivePack is the packing rule by definition: grow a run one tuple at a
// time, encode it, and cut before the tuple whose stream would exceed
// capacity.
func naivePack(t *testing.T, c core.Codec, s *relation.Schema, tuples []relation.Tuple, capacity int) [][]relation.Tuple {
	t.Helper()
	var runs [][]relation.Tuple
	start := 0
	for end := 1; end <= len(tuples); end++ {
		enc, err := core.EncodeBlock(c, s, tuples[start:end], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) <= capacity {
			continue
		}
		if end-start == 1 {
			t.Fatalf("%v: tuple %d alone needs %d bytes of %d", c, start, len(enc), capacity)
		}
		runs = append(runs, tuples[start:end-1])
		start = end - 1
		end = start // the next pass re-encodes the cut tuple alone
	}
	if start < len(tuples) {
		runs = append(runs, tuples[start:])
	}
	return runs
}

// naivePages lays naivePack's runs out as a fresh store's pages: stream
// length prefix, stream, zero padding.
func naivePages(t *testing.T, c core.Codec, s *relation.Schema, tuples []relation.Tuple, pageSize int) [][]byte {
	t.Helper()
	var pages [][]byte
	for _, run := range naivePack(t, c, s, tuples, StreamCapacity(pageSize)) {
		page := make([]byte, lenPrefix, pageSize)
		page, err := core.EncodeBlock(c, s, run, page)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(page, uint32(len(page)-lenPrefix))
		pages = append(pages, page[:pageSize])
	}
	return pages
}

// checkNaivePages compares a freshly loaded store with naivePages: the
// blocks sit on pages 0, 1, ... in clustered order, each holding exactly
// the reference image.
func checkNaivePages(t *testing.T, what string, s *Store, pager *storage.MemPager, pool *buffer.Pool, want [][]byte) {
	t.Helper()
	got := pageImages(t, s, pager, pool)
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, the reference packs %d", what, len(got), len(want))
	}
	for i, id := range s.Blocks() {
		if id != storage.PageID(i) || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: block %d on page %d differs from the reference page image", what, i, id)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestBulkLoadParallelByteIdentical is the differential test for the load
// pipeline: at every worker count, for every codec, a bulk load writes
// exactly the naive reference's runs, on the same pages, with the same
// page bytes.
func TestBulkLoadParallelByteIdentical(t *testing.T) {
	const pageSize = 512
	tuples := pipelineTuples(t, 5000, 42)
	for _, codec := range core.Codecs() {
		want := naivePages(t, codec, pipelineSchema(t), tuples, pageSize)
		for w := 1; w <= 8; w++ {
			s, pager, pool := pipelineStore(t, codec, pageSize, 64, w)
			refs, err := s.BulkLoadContext(context.Background(), tuples)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", codec, w, err)
			}
			for i, ref := range refs {
				if ref.Page != storage.PageID(i) {
					t.Fatalf("%v workers=%d: ref %d names page %d", codec, w, i, ref.Page)
				}
			}
			checkNaivePages(t, fmt.Sprintf("%v workers=%d", codec, w), s, pager, pool, want)
		}
	}
}

// packInput is one φ-sorted relation the packing rule is held to.
type packInput struct {
	name   string
	schema *relation.Schema
	tuples []relation.Tuple
}

// packInputs are ledger-shaped flat8 and wide38 look-alikes, a Figure 5.7
// relation and a duplicate-run relation (each tuple of a small relation
// repeated 1 to 40 times), every one φ-sorted.
func packInputs(t *testing.T) []packInput {
	t.Helper()
	build := func(name string, spec gen.Spec) packInput {
		s, tuples, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		s.SortTuples(tuples)
		return packInput{name, s, tuples}
	}
	var in []packInput
	for _, name := range []string{"flat8", "wide38"} {
		spec, err := gen.BenchShapeSpec(name, 1500, 1)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, build(name, spec))
	}
	in = append(in, build("fig5.7", gen.Fig57Spec(1500, true, gen.VarianceLarge, 3)))
	dup := build("duplicate-runs", gen.Fig57Spec(100, false, gen.VarianceSmall, 4))
	var runs []relation.Tuple
	for i, tu := range dup.tuples {
		for k := 0; k <= i%40; k++ {
			runs = append(runs, tu)
		}
	}
	dup.tuples = runs
	return append(in, dup)
}

// TestOnePackingRule holds every packer to naivePack: bulk load at one and
// four workers, packRuns' greedy fallback and the relfile writer's fences
// all cut the reference's runs, for every codec on every packInputs
// relation, at 512-byte pages and at a capacity one tuple exactly fills.
func TestOnePackingRule(t *testing.T) {
	ctx := context.Background()
	lengths := func(runs [][]relation.Tuple) []int {
		out := make([]int, len(runs))
		for i, run := range runs {
			out[i] = len(run)
		}
		return out
	}
	counts := func(refs []BlockRef, err error) []int {
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(refs))
		for i, ref := range refs {
			out[i] = ref.Count
		}
		return out
	}
	for _, in := range packInputs(t) {
		for _, c := range core.Codecs() {
			exact := core.NewSizer(c, in.schema).BlockSize(1, 0)
			for _, tc := range []struct {
				name     string
				capacity int
				tuples   []relation.Tuple
			}{
				{in.name, StreamCapacity(512), in.tuples},
				{in.name + "/exact-fill", exact, in.tuples[:60]},
			} {
				want := lengths(naivePack(t, c, in.schema, tc.tuples, tc.capacity))
				got := map[string][]int{}
				for _, w := range []int{1, 4} {
					s, _, _ := schemaStore(t, in.schema, c, tc.capacity+lenPrefix, 64, w)
					got[fmt.Sprintf("bulk load, %d workers", w)] = counts(s.BulkLoadContext(ctx, tc.tuples))
				}
				s, _, _ := schemaStore(t, in.schema, c, tc.capacity+lenPrefix, 64, 4)
				runs, err := s.packRuns(tc.tuples)
				if err != nil {
					t.Fatal(err)
				}
				got["packRuns"] = lengths(runs)
				info, err := relfile.WriteCompressed(io.Discard, in.schema, tc.tuples, c, tc.capacity)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range info.Fences {
					got["relfile"] = append(got["relfile"], f.Count)
				}
				if len(want) < 3 {
					t.Fatalf("%s %v: %d runs; packRuns only falls back to the chunker past two", tc.name, c, len(want))
				}
				for packer, g := range got {
					if !slices.Equal(g, want) {
						t.Errorf("%s %v, %s: runs %v, reference %v", tc.name, c, packer, g, want)
					}
				}
			}
		}
	}
}

// TestScanBlocksParallelOrderAndEarlyStop verifies the parallel scan
// delivers blocks in clustered order and honors an early stop.
func TestScanBlocksParallelOrderAndEarlyStop(t *testing.T) {
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, 4)
	tuples := pipelineTuples(t, 3000, 11)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	want := s.Blocks()
	if len(want) < 8 {
		t.Fatalf("want several blocks, got %d", len(want))
	}
	var got []storage.PageID
	count := 0
	if err := s.ScanBlocksContext(context.Background(), func(id storage.PageID, ts []relation.Tuple) bool {
		got = append(got, id)
		count += len(ts)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d visited as %d, want %d", i, got[i], want[i])
		}
	}
	if count != len(tuples) {
		t.Fatalf("scanned %d tuples, want %d", count, len(tuples))
	}
	// Early stop after 3 blocks.
	visited := 0
	if err := s.ScanBlocksContext(context.Background(), func(storage.PageID, []relation.Tuple) bool {
		visited++
		return visited < 3
	}); err != nil {
		t.Fatal(err)
	}
	if visited != 3 {
		t.Fatalf("early stop visited %d blocks, want 3", visited)
	}
}

// TestScanBlocksParallelSmallPool verifies the scan fan-out is clamped so
// decode workers cannot pin every frame of a tiny pool.
func TestScanBlocksParallelSmallPool(t *testing.T) {
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 3, 16)
	tuples := pipelineTuples(t, 2000, 3)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s.ScanBlocksContext(context.Background(), func(_ storage.PageID, ts []relation.Tuple) bool {
		count += len(ts)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(tuples) {
		t.Fatalf("scanned %d tuples, want %d", count, len(tuples))
	}
}

// TestComputeStatsParallelMatchesSerial checks the pipelined stats against
// a front-to-back pass over the block pages with core.Inspect.
func TestComputeStatsParallelMatchesSerial(t *testing.T) {
	tuples := pipelineTuples(t, 3000, 5)
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 6)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Blocks:       s.NumBlocks(),
		Tuples:       len(tuples),
		PageBytes:    s.NumBlocks() * 512,
		RawDataBytes: len(tuples) * s.Schema().RowSize(),
	}
	for _, page := range pageImages(t, s, pager, pool) {
		info, err := core.Inspect(page[lenPrefix : lenPrefix+binary.BigEndian.Uint32(page)])
		if err != nil {
			t.Fatal(err)
		}
		want.StreamBytes += info.StreamSize
	}
	got, err := s.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pipelined stats %+v != page walk %+v", got, want)
	}
}

// TestConcurrentScanVsRewriteRace is the -race stress test: readers run
// parallel scans while a writer rewrites blocks (freeing and recycling
// their pages), under the same reader/writer locking the table layer
// provides.
func TestConcurrentScanVsRewriteRace(t *testing.T) {
	s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 64, 4)
	tuples := pipelineTuples(t, 2000, 13)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				mu.RLock()
				n := 0
				err := s.ScanBlocksContext(context.Background(), func(_ storage.PageID, ts []relation.Tuple) bool {
					n += len(ts)
					return rng.Intn(10) != 0 // sometimes stop early
				})
				mu.RUnlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 100; i++ {
			mu.Lock()
			err := rewriteInPlace(s, rng.Intn(s.NumBlocks()))
			mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// faultPager injects a failure into the Nth Allocate call, for rollback
// fault-injection tests, and into every Read while failReads is set.
type faultPager struct {
	storage.Pager
	mu         sync.Mutex
	allocs     int
	failAlloc  int // fail the Nth allocate (1-based); 0 disables
	injectedAt bool
	failReads  atomic.Bool
}

var (
	errInjected     = errors.New("injected allocate failure")
	errInjectedRead = errors.New("injected read failure")
)

func (p *faultPager) Read(id storage.PageID, buf []byte) error {
	if p.failReads.Load() {
		return errInjectedRead
	}
	return p.Pager.Read(id, buf)
}

func (p *faultPager) Allocate() (storage.PageID, error) {
	p.mu.Lock()
	p.allocs++
	fail := p.failAlloc > 0 && p.allocs == p.failAlloc
	if fail {
		p.injectedAt = true
	}
	p.mu.Unlock()
	if fail {
		return storage.InvalidPage, errInjected
	}
	return p.Pager.Allocate()
}

// TestSplitBlockRollbackOnFault forces a split whose second half fails to
// write and verifies the store rolls back: no orphaned pages, the original
// block intact, and the deep checker happy.
func TestSplitBlockRollbackOnFault(t *testing.T) {
	mem, err := storage.NewMemPager(512)
	if err != nil {
		t.Fatal(err)
	}
	fp := &faultPager{Pager: mem}
	pool, err := buffer.New(fp, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := poolStore(t, pipelineSchema(t), core.CodecAVQ, pool)
	tuples := pipelineTuples(t, 800, 17)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	id := s.Blocks()[0]
	before, err := s.decodeBlock(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Merging block 0's own tuples into it doubles every tuple: an
	// oversized run that must split into at least two pages.
	double := make([]relation.Tuple, 0, 2*len(before))
	for _, tu := range before {
		double = append(double, tu.Clone(), tu.Clone())
	}
	s.Schema().SortTuples(double)

	// Predict how many pages the split will write, then run it with the
	// last allocation failing.
	preAllocs := countAllocs(t, s, double)
	if preAllocs < 2 {
		t.Fatalf("split wrote %d pages; need >= 2 to exercise partial failure", preAllocs)
	}

	liveBefore := livePages(t, mem, s)
	fp.mu.Lock()
	fp.failAlloc = fp.allocs + preAllocs // fail the final page of the split
	fp.mu.Unlock()
	if _, _, err := s.MergeRun(before); !errors.Is(err, errInjected) {
		t.Fatalf("merge error = %v, want injected failure", err)
	}
	if !fp.injectedAt {
		t.Fatal("fault was never injected")
	}
	fp.failAlloc = 0

	// The original block must be untouched and no page leaked: every
	// non-free page is still a block of the store.
	if got := livePages(t, mem, s); got != liveBefore {
		t.Fatalf("%d live pages after failed split, want %d (leaked orphan pages)", got, liveBefore)
	}
	if s.Blocks()[0] != id {
		t.Fatal("failed split replaced the original block")
	}
	after, err := s.decodeBlock(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("original block has %d tuples after failed split, want %d", len(after), len(before))
	}
	if err := s.Check(); err != nil {
		t.Fatalf("store inconsistent after failed split: %v", err)
	}
	// And the store must still accept the same rewrite once the fault
	// clears.
	if _, n, err := s.MergeRun(before); err != nil || n != len(before) {
		t.Fatalf("merge after the fault cleared: n=%d err=%v", n, err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// rewriteInPlace re-codes the block at position at with its own tuples
// through the mutators' shared write-and-publish step: a copy-on-write
// rewrite that changes nothing but the page.
func rewriteInPlace(s *Store, at int) error {
	m := s.man.Load()
	ts, err := s.decodeBlock(m.block(at), nil)
	if err != nil {
		return err
	}
	_, err = s.writeRuns(m, at, 1, ts)
	return err
}

// countAllocs predicts how many pages packRuns will write for run, by
// replaying its layout rule (even halving, else the greedy chunker).
func countAllocs(t *testing.T, s *Store, run []relation.Tuple) int {
	t.Helper()
	size, err := core.EncodedSize(s.Codec(), s.Schema(), run)
	if err != nil {
		t.Fatal(err)
	}
	if size <= s.capacity() {
		t.Fatal("run fits one page; widen it so the rewrite splits")
	}
	half := len(run) / 2
	left, err := core.EncodedSize(s.Codec(), s.Schema(), run[:half])
	if err != nil {
		t.Fatal(err)
	}
	right, err := core.EncodedSize(s.Codec(), s.Schema(), run[half:])
	if err != nil {
		t.Fatal(err)
	}
	if left <= s.capacity() && right <= s.capacity() {
		return 2
	}
	runs, _, err := core.Pack(s.Codec(), s.Schema(), run, s.capacity())
	if err != nil {
		t.Fatal(err)
	}
	return len(runs)
}

// livePages counts pager pages that are not on the free list, by probing
// each page with a read.
func livePages(t *testing.T, mem *storage.MemPager, s *Store) int {
	t.Helper()
	buf := make([]byte, mem.PageSize())
	n := 0
	for id := 0; id < mem.NumPages(); id++ {
		if err := mem.Read(storage.PageID(id), buf); err == nil {
			n++
		} else if !errors.Is(err, storage.ErrPageFreed) {
			t.Fatalf("page %d: %v", id, err)
		}
	}
	return n
}

// TestEmptyStoreStats covers the empty-relation paths: stats are all zero,
// the ratio helpers are NaN-free, and scans visit nothing.
func TestEmptyStoreStats(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s, _, _ := pipelineStore(t, core.CodecAVQ, 512, 8, workers)
		st, err := s.ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if st != (Stats{}) {
			t.Fatalf("workers=%d: empty store stats = %+v, want zero", workers, st)
		}
		if r := st.CompressionRatio(); r != 0 {
			t.Fatalf("workers=%d: empty CompressionRatio = %v, want 0", workers, r)
		}
		if p := st.StreamSavingsPercent(); p != 0 {
			t.Fatalf("workers=%d: empty StreamSavingsPercent = %v, want 0", workers, p)
		}
		visited := 0
		if err := s.ScanBlocksContext(context.Background(), func(storage.PageID, []relation.Tuple) bool {
			visited++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if visited != 0 {
			t.Fatalf("workers=%d: scan of empty store visited %d blocks", workers, visited)
		}
	}
}

// TestParallelErrorReporting checks a decode failure mid-store surfaces
// from the pipelined scan (and stops it) as the first failure in clustered
// order.
func TestParallelErrorReporting(t *testing.T) {
	s, pager, pool := pipelineStore(t, core.CodecAVQ, 512, 64, 4)
	tuples := pipelineTuples(t, 2000, 31)
	if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a middle block's stream on the pager.
	victim := s.Blocks()[len(s.Blocks())/2]
	buf := make([]byte, pager.PageSize())
	if err := pager.Read(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[lenPrefix+8] ^= 0xFF
	if err := pager.Write(victim, buf); err != nil {
		t.Fatal(err)
	}
	err := s.ScanBlocksContext(context.Background(), func(storage.PageID, []relation.Tuple) bool { return true })
	if err == nil {
		t.Fatal("scan of corrupted store succeeded")
	}
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("scan error = %v, want checksum mismatch", err)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	schema := relation.MustSchema(
		relation.Domain{Name: "a", Size: 6},
		relation.Domain{Name: "b", Size: 4000},
		relation.Domain{Name: "c", Size: 97},
		relation.Domain{Name: "d", Size: 12},
		relation.Domain{Name: "e", Size: 70000},
	)
	rng := rand.New(rand.NewSource(1995))
	tuples := make([]relation.Tuple, 100_000)
	for i := range tuples {
		tu := make(relation.Tuple, schema.NumAttrs())
		for a := 0; a < schema.NumAttrs(); a++ {
			tu[a] = uint64(rng.Int63n(int64(schema.Domain(a).Size)))
		}
		tuples[i] = tu
	}
	schema.SortTuples(tuples)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pager, _ := storage.NewMemPager(8192)
				pool, _ := buffer.New(pager, nil, 256)
				s, err := New(schema, core.CodecAVQ, pool)
				if err != nil {
					b.Fatal(err)
				}
				s.workers = workers
				if _, err := s.BulkLoadContext(context.Background(), tuples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
