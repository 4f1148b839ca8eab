package table

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/simdisk"
)

// TestSyncConcurrentReadersAndWriters hammers one table from multiple
// goroutines; run with -race to verify the locking.
func TestSyncConcurrentReadersAndWriters(t *testing.T) {
	st := newTable(t, core.CodecAVQ, []int{1, 4})
	if err := st.BulkLoadContext(context.Background(), randomTuples(t, 1500, 81)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				switch rng.Intn(3) {
				case 0:
					if _, _, err := st.SelectRangeContext(context.Background(), rng.Intn(5), 0, 30); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := st.CountRangeContext(context.Background(), 1, 2, 9); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := st.AggregateRangeContext(context.Background(), 0, 0, 7, 2); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(r))
	}
	// Writers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 100; i++ {
				tu := relation.Tuple{
					uint64(rng.Intn(8)), uint64(rng.Intn(16)),
					uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(4096)),
				}
				if rng.Intn(2) == 0 {
					if err := st.InsertContext(context.Background(), tu); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := st.DeleteContext(context.Background(), tu); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks() <= 0 {
		t.Fatal("accessors inconsistent")
	}
}

// TestSyncSnapshotConsistency is the snapshot-isolation stress test: while
// writers cycle an insert-delete pair and periodically Compact, concurrent
// readers must always observe a consistent view — exactly N or N+1 tuples,
// never a torn count — because every query streams a pinned manifest
// snapshot. The invariant-preserving write pattern makes "torn" decidable:
// any count outside {N, N+1} means a reader mixed pre- and post-mutation
// blocks. Run with -race to also verify the locking.
func TestSyncSnapshotConsistency(t *testing.T) {
	s := testSchema(t)
	st := createTable(t, s,
		WithCodec(core.CodecAVQ),
		WithPageSize(512),
		WithSecondaryAttrs(1),
	)
	const n = 1200
	if err := st.BulkLoadContext(context.Background(), randomTuples(t, n, 83)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	// Writer: insert a tuple, then delete the same tuple. Every committed
	// state holds exactly n or n+1 rows.
	writers.Add(1)
	go func() {
		defer writers.Done()
		extra := relation.Tuple{3, 7, 31, 31, 2047}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.InsertContext(context.Background(), extra); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			ok, err := st.DeleteContext(context.Background(), extra)
			if err != nil || !ok {
				t.Errorf("delete: ok=%v err=%v", ok, err)
				return
			}
		}
	}()
	// Writer: compaction rewrites the whole layout underneath readers.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := st.CompactContext(context.Background()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	// Readers: counts and group-by totals over the full domain must land
	// on n or n+1 in every pass.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			for i := 0; i < 120; i++ {
				if rng.Intn(2) == 0 {
					cnt, _, err := st.CountRangeContext(context.Background(), 0, 0, 7)
					if err != nil {
						t.Errorf("count: %v", err)
						return
					}
					if cnt != n && cnt != n+1 {
						t.Errorf("torn view: CountRange saw %d tuples, want %d or %d", cnt, n, n+1)
						return
					}
				} else {
					groups, _, err := st.GroupByContext(context.Background(), 0, 0, 7, 1, 2)
					if err != nil {
						t.Errorf("groupby: %v", err)
						return
					}
					total := 0
					for _, g := range groups {
						total += g.Agg.Count
					}
					if total != n && total != n+1 {
						t.Errorf("torn view: GroupBy saw %d tuples, want %d or %d", total, n, n+1)
						return
					}
				}
			}
		}(int64(r))
	}
	// Readers run a bounded number of passes; writers loop until the
	// readers are done.
	readers.Wait()
	close(stop)
	writers.Wait()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != n && got != n+1 {
		t.Fatalf("final size %d", got)
	}
}

func TestSyncLifecycle(t *testing.T) {
	st := newTable(t, core.CodecAVQ, nil)
	if err := st.InsertBatchContext(context.Background(), randomTuples(t, 100, 82)); err != nil {
		t.Fatal(err)
	}
	tu := relation.Tuple{1, 2, 3, 4, 5}
	if err := st.InsertContext(context.Background(), tu); err != nil {
		t.Fatal(err)
	}
	ok, err := st.Contains(tu)
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if ok, err := st.UpdateContext(context.Background(), tu, relation.Tuple{1, 2, 3, 4, 6}); err != nil || !ok {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if _, _, err := st.CompactContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// writerMark splits the empno domain: base rows stay below it and are never
// mutated; everything the concurrent writers insert or delete sits at or
// above it. A reader can therefore decide, inside any snapshot, exactly
// which base rows a range must hold and how many extra rows it may.
const writerMark = 4000

// markedTuples draws n tuples on one side of writerMark.
func markedTuples(rng *rand.Rand, n int, writer bool) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		empno := uint64(rng.Intn(writerMark))
		if writer {
			empno = writerMark + uint64(rng.Intn(4096-writerMark))
		}
		out[i] = relation.Tuple{
			uint64(rng.Intn(8)), uint64(rng.Intn(16)),
			uint64(rng.Intn(64)), uint64(rng.Intn(64)), empno,
		}
	}
	return out
}

// baseRange returns the rows of the φ-sorted base with lo <= attribute 0 <= hi.
func baseRange(base []relation.Tuple, lo, hi uint64) []relation.Tuple {
	from := sort.Search(len(base), func(i int) bool { return base[i][0] >= lo })
	to := sort.Search(len(base), func(i int) bool { return base[i][0] > hi })
	return base[from:to]
}

// checkView holds one reader's result to the sorted base oracle: rows in φ
// order, the base rows of [lo, hi] on attribute 0 present exactly, and at
// most maxExtra writer rows beside them.
func checkView(s *relation.Schema, base []relation.Tuple, rows []relation.Tuple, lo, hi uint64, maxExtra int) string {
	want := baseRange(base, lo, hi)
	extra := 0
	for i, tu := range rows {
		if i > 0 && s.Compare(rows[i-1], tu) > 0 {
			return "rows out of phi order"
		}
		if tu[0] < lo || tu[0] > hi {
			return "row outside the predicate"
		}
		if tu[4] >= writerMark {
			extra++
			continue
		}
		if len(want) == 0 || s.Compare(want[0], tu) != 0 {
			return "base row missing or unexpected"
		}
		want = want[1:]
	}
	if len(want) != 0 {
		return "base rows missing from the view"
	}
	if extra > maxExtra {
		return "more writer rows than were ever inserted"
	}
	return ""
}

// TestTableConcurrentOracle runs every reader shape beside two writers and
// periodic checkpoints on one WAL-mode table. Each view is checked against
// the sorted base slice while the writers run, the final contents against
// base plus whatever the writers left, and the table must end consistent
// with nothing pinned.
func TestTableConcurrentOracle(t *testing.T) {
	ctx := context.Background()
	s := testSchema(t)
	tb := createTable(t, s, walTestOpts(simdisk.NewFaultFS())...)
	rng := rand.New(rand.NewSource(91))
	base := markedTuples(rng, 1200, false)
	if err := tb.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	s.SortTuples(base)

	const writers, opsPerWriter = 2, 60
	const maxExtra = writers * opsPerWriter
	type reader func(rng *rand.Rand) string
	span := func(rng *rand.Rand) (uint64, uint64) {
		lo := uint64(rng.Intn(8))
		return lo, lo + uint64(rng.Intn(8-int(lo)))
	}
	baseCount := func(lo, hi uint64) int { return len(baseRange(base, lo, hi)) }
	inBounds := func(got, want int) bool { return got >= want && got <= want+maxExtra }
	readers := []reader{
		func(rng *rand.Rand) string { // select
			lo, hi := span(rng)
			rows, _, err := tb.SelectRangeContext(ctx, 0, lo, hi)
			if err != nil {
				return err.Error()
			}
			return checkView(s, base, rows, lo, hi, maxExtra)
		},
		func(rng *rand.Rand) string { // aggregate
			lo, hi := span(rng)
			res, _, err := tb.AggregateRangeContext(ctx, 0, lo, hi, 4)
			if err != nil {
				return err.Error()
			}
			if !inBounds(res.Count, baseCount(lo, hi)) {
				return "aggregate count outside the oracle's bounds"
			}
			return ""
		},
		func(rng *rand.Rand) string { // group-by
			lo, hi := span(rng)
			groups, _, err := tb.GroupByContext(ctx, 0, lo, hi, 0, 4)
			if err != nil {
				return err.Error()
			}
			for i, g := range groups {
				if i > 0 && groups[i-1].Value >= g.Value {
					return "groups out of order"
				}
				if !inBounds(g.Agg.Count, baseCount(g.Value, g.Value)) {
					return "group count outside the oracle's bounds"
				}
			}
			return ""
		},
		func(rng *rand.Rand) string { // batch iterator
			it := tb.BatchIterator(ctx)
			defer it.Release()
			n, last := 0, uint64(0)
			for {
				sl, err := it.Next()
				if err != nil {
					return err.Error()
				}
				if sl.Len() == 0 {
					break
				}
				for _, phi := range sl.Phis {
					if phi < last {
						return "slab stream out of phi order"
					}
					last = phi
				}
				n += sl.Len()
			}
			if !inBounds(n, len(base)) {
				return "slab stream row count outside the oracle's bounds"
			}
			return ""
		},
	}

	var wg sync.WaitGroup
	for i, rd := range readers {
		wg.Add(1)
		go func(i int, rd reader) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + i)))
			for pass := 0; pass < 40; pass++ {
				if msg := rd(rng); msg != "" {
					t.Errorf("reader %d pass %d: %s", i, pass, msg)
					return
				}
			}
		}(i, rd)
	}
	// Writers insert their own marked rows and delete some of them again;
	// every tenth op asks the checkpointer for a checkpoint.
	live := make([][]relation.Tuple, writers)
	ckpt := make(chan struct{})
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			for op, tu := range markedTuples(rng, opsPerWriter, true) {
				if len(live[w]) > 0 && rng.Intn(3) == 0 {
					victim := live[w][len(live[w])-1]
					ok, err := tb.DeleteContext(ctx, victim)
					if err != nil || !ok {
						t.Errorf("writer %d delete: ok=%v err=%v", w, ok, err)
						return
					}
					live[w] = live[w][:len(live[w])-1]
				} else {
					if err := tb.InsertContext(ctx, tu); err != nil {
						t.Errorf("writer %d insert: %v", w, err)
						return
					}
					live[w] = append(live[w], tu)
				}
				if op%10 == 9 {
					ckpt <- struct{}{}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ckpt {
			if err := tb.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	wwg.Wait()
	close(ckpt)
	wg.Wait()

	want := append([]relation.Tuple(nil), base...)
	for _, l := range live {
		want = append(want, l...)
	}
	s.SortTuples(want)
	var got []relation.Tuple
	if err := tb.ScanContext(ctx, func(tu relation.Tuple) bool {
		got = append(got, tu)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || tb.Len() != len(want) {
		t.Fatalf("table holds %d rows (Len %d), oracle %d", len(got), tb.Len(), len(want))
	}
	for i := range want {
		if s.Compare(got[i], want[i]) != 0 {
			t.Fatalf("row %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
	if p, sn := tb.PinnedFrames(), tb.LiveSnapshots(); p != 0 || sn != 0 {
		t.Fatalf("%d pinned frames, %d live snapshots after the run", p, sn)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTableReentrantCallbacks: a streaming read's callback runs without the
// table lock, so it may mutate the same table — and the stream keeps
// delivering the snapshot it pinned before the mutation.
func TestTableReentrantCallbacks(t *testing.T) {
	ctx := context.Background()
	const n = 600
	last := relation.Tuple{7, 15, 63, 63, 4095} // sorts after every other row
	streams := map[string]func(tb *Table, fn func(relation.Tuple) bool) error{
		"scan": func(tb *Table, fn func(relation.Tuple) bool) error {
			return tb.ScanContext(ctx, fn)
		},
		"select-range-func": func(tb *Table, fn func(relation.Tuple) bool) error {
			_, err := tb.SelectRangeFuncContext(ctx, 0, 0, 7, fn)
			return err
		},
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			tb := newTable(t, core.CodecAVQ, []int{1})
			if err := tb.BulkLoadContext(ctx, markedTuples(rand.New(rand.NewSource(92)), n, false)); err != nil {
				t.Fatal(err)
			}
			seen := 0
			err := stream(tb, func(tu relation.Tuple) bool {
				if seen == 0 {
					if err := tb.InsertContext(ctx, last); err != nil {
						t.Errorf("insert from callback: %v", err)
					}
				}
				if tu[4] == last[4] {
					t.Error("stream delivered the row inserted after its snapshot")
				}
				seen++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != n || tb.Len() != n+1 {
				t.Fatalf("stream saw %d rows, table holds %d; want %d and %d", seen, tb.Len(), n, n+1)
			}
			if err := tb.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTableSelfJoinNoDeadlock joins a table with itself while a writer
// queues for the exclusive lock between the two sides' pins: holding two
// read locks at once would deadlock behind it.
func TestTableSelfJoinNoDeadlock(t *testing.T) {
	ctx := context.Background()
	tb := newTable(t, core.CodecAVQ, nil)
	base := markedTuples(rand.New(rand.NewSource(93)), 240, false)
	if err := tb.BulkLoadContext(ctx, base); err != nil {
		t.Fatal(err)
	}
	perKey := map[uint64]int{}
	for _, tu := range base {
		perKey[tu[0]]++
	}
	minRows := 0 // the base rows always join; the writer's row only adds
	for _, c := range perKey {
		minRows += c * c
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		extra := relation.Tuple{3, 7, 31, 31, writerMark}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tb.InsertContext(ctx, extra); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if ok, err := tb.DeleteContext(ctx, extra); err != nil || !ok {
				t.Errorf("delete: ok=%v err=%v", ok, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 15; i++ {
			rows, _, err := MergeJoinContext(ctx, tb, tb)
			if err != nil || len(rows) < minRows {
				t.Errorf("merge self-join: %d rows (want >= %d), err %v", len(rows), minRows, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("self-join deadlocked beside a writer")
	}
	close(stop)
	writer.Wait()
	if err := tb.Check(); err != nil {
		t.Fatal(err)
	}
}
