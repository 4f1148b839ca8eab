package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/relation"
)

// fakeShard builds a ShardScan over an in-memory tuple run.
func fakeShard(lo, hi uint64, blocks int, tuples []relation.Tuple) ShardScan {
	return ShardScan{Lo: lo, Hi: hi, Blocks: blocks, Run: func(ctx context.Context, emit func(relation.Tuple) bool) error {
		for _, tu := range tuples {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !emit(tu) {
				return nil
			}
		}
		return nil
	}}
}

func scatterFixture(shardCount, perShard int) ([]ShardScan, []relation.Tuple) {
	var shards []ShardScan
	var all []relation.Tuple
	for s := 0; s < shardCount; s++ {
		var tuples []relation.Tuple
		for i := 0; i < perShard; i++ {
			tuples = append(tuples, relation.Tuple{uint64(s*perShard + i), uint64(s)})
		}
		all = append(all, tuples...)
		shards = append(shards, fakeShard(uint64(s*perShard), uint64((s+1)*perShard-1), perShard/4+1, tuples))
	}
	return shards, all
}

func TestScatterOrderedMerge(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			shards, all := scatterFixture(5, 700)
			var got []relation.Tuple
			st, err := scatter(context.Background(), shards, 0, ^uint64(0),
				workers, func(tu relation.Tuple) bool {
					got = append(got, tu)
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardsScanned != 5 || st.ShardsPruned != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if len(got) != len(all) {
				t.Fatalf("merged %d tuples, want %d", len(got), len(all))
			}
			for i := range got {
				if got[i][0] != all[i][0] || got[i][1] != all[i][1] {
					t.Fatalf("tuple %d = %v, want %v (order broken)", i, got[i], all[i])
				}
			}
		})
	}
}

func TestScatterPrunesDisjointShards(t *testing.T) {
	shards, _ := scatterFixture(4, 100)
	var got []relation.Tuple
	// [150, 249] overlaps shards 1 and 2 only.
	st, err := Scatter(context.Background(), shards, 150, 249, func(tu relation.Tuple) bool {
		got = append(got, tu)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsPruned != 2 || st.ShardsScanned != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BlocksPruned != 2*(100/4+1) {
		t.Fatalf("BlocksPruned = %d", st.BlocksPruned)
	}
	// The executor scans whole live shards; range filtering is the
	// shard's own Run. Here the fakes emit everything they hold.
	if len(got) != 200 {
		t.Fatalf("emitted %d", len(got))
	}

	// Fully disjoint bound: nothing runs.
	st, err = Scatter(context.Background(), shards, 1000, 2000, func(relation.Tuple) bool {
		t.Fatal("emit on fully pruned pass")
		return false
	})
	if err != nil || st.ShardsScanned != 0 || st.ShardsPruned != 4 {
		t.Fatalf("disjoint: %+v, %v", st, err)
	}
}

func TestScatterSingleLiveShardInline(t *testing.T) {
	// With one live shard the tuples must pass through untouched (no
	// copies, same backing array) — the degenerate single-shard path.
	probe := relation.Tuple{42, 7}
	shards := []ShardScan{
		fakeShard(0, 9, 1, []relation.Tuple{probe}),
		fakeShard(10, 19, 1, []relation.Tuple{{10, 0}}),
	}
	var seen []relation.Tuple
	st, err := Scatter(context.Background(), shards, 0, 9, func(tu relation.Tuple) bool {
		seen = append(seen, tu)
		return true
	})
	if err != nil || st.ShardsScanned != 1 {
		t.Fatalf("%+v, %v", st, err)
	}
	if len(seen) != 1 || &seen[0][0] != &probe[0] {
		t.Fatal("single-shard path copied the tuple")
	}
}

func TestScatterEarlyStop(t *testing.T) {
	shards, _ := scatterFixture(6, 500)
	var got int
	st, err := Scatter(context.Background(), shards, 0, ^uint64(0), func(relation.Tuple) bool {
		got++
		return got < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("emitted %d after stop", got)
	}
	_ = st
}

func TestScatterErrorPropagation(t *testing.T) {
	boom := errors.New("shard 2 exploded")
	shards, _ := scatterFixture(4, 300)
	shards[2].Run = func(ctx context.Context, emit func(relation.Tuple) bool) error {
		return boom
	}
	_, err := Scatter(context.Background(), shards, 0, ^uint64(0), func(relation.Tuple) bool { return true })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want shard error", err)
	}
}

func TestScatterContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	shards, _ := scatterFixture(3, 100)
	n := 0
	_, err := Scatter(ctx, shards, 0, ^uint64(0), func(relation.Tuple) bool {
		n++
		if n == 5 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestScatterCollect(t *testing.T) {
	counts := make([]int, 20)
	err := scatterCollect(context.Background(), 20, 4, func(ctx context.Context, i int) error {
		counts[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != i*i {
			t.Fatalf("slot %d = %d", i, c)
		}
	}

	// With every task scheduled at once, the error must cancel the rest.
	boom := errors.New("bad shard")
	err = scatterCollect(context.Background(), 8, 8, func(ctx context.Context, i int) error {
		if i == 3 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want first real error", err)
	}
}
