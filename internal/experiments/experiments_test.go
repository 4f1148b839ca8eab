package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestFig57SmallScale(t *testing.T) {
	res, err := RunFig57(context.Background(), Fig57Config{TupleCounts: []int{3000}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (one per test)", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.AVQBlocks <= 0 || c.UncodedBlocks <= 0 || c.PackedBlocks <= 0 {
			t.Fatalf("degenerate cell %+v", c)
		}
		if c.AVQBlocks > c.PackedBlocks {
			t.Fatalf("AVQ used more blocks than packed raw: %+v", c)
		}
		if c.PackedBlocks > c.UncodedBlocks {
			t.Fatalf("packed layout larger than word layout: %+v", c)
		}
		if c.ReductionPct < 40 {
			t.Fatalf("reduction %.1f%% far below the paper's 65-73%%", c.ReductionPct)
		}
	}
	// The paper's two findings: skew does not matter; homogeneity helps.
	if diff := res.MeanReduction[1] - res.MeanReduction[3]; diff > 5 || diff < -5 {
		t.Fatalf("skew changed reduction by %.1f points; paper finds no effect", diff)
	}
	if res.MeanReduction[1] <= res.MeanReduction[2] {
		t.Fatalf("small variance (%.1f%%) did not beat large variance (%.1f%%)",
			res.MeanReduction[1], res.MeanReduction[2])
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 5.7") {
		t.Fatal("report missing title")
	}
}

func TestTimingSmallScale(t *testing.T) {
	res, err := RunTiming(context.Background(), TimingConfig{Tuples: 5000, Repetitions: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks <= 0 {
		t.Fatal("no blocks packed")
	}
	if res.Code <= 0 || res.Decode <= 0 || res.Extract <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	// Extraction of raw tuples must be cheaper than AVQ decoding, the
	// premise of the paper's t3 < t2 relationship.
	if res.Extract >= res.Decode*4 {
		t.Fatalf("extract %v implausibly slower than decode %v", res.Extract, res.Decode)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HP 9000/735", "Sun 4/50", "DEC 5000/120", "this host"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing machine %q", want)
		}
	}
}

func TestFig58SmallScale(t *testing.T) {
	res, err := RunFig58(context.Background(), Fig58Config{Tuples: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 attributes", len(res.Rows))
	}
	if res.AVQBlocks >= res.RawBlocks {
		t.Fatalf("AVQ blocks %d >= raw %d", res.AVQBlocks, res.RawBlocks)
	}
	// Attribute 1 uses the clustered path and touches a fraction of blocks.
	first := res.Rows[0]
	if first.Strategy.String() != "clustered" {
		t.Fatalf("attr 1 strategy = %v", first.Strategy)
	}
	if first.RawN >= res.RawBlocks {
		t.Fatalf("clustered query read all %d blocks", first.RawN)
	}
	// A middle attribute touches (nearly) every block of its representation.
	mid := res.Rows[7]
	if mid.RawN < res.RawBlocks*8/10 {
		t.Fatalf("attr 8 read only %d of %d raw blocks", mid.RawN, res.RawBlocks)
	}
	// The primary-key point query touches exactly one block per the paper.
	last := res.Rows[15]
	if last.AVQN != 1 || last.RawN != 1 {
		t.Fatalf("primary-key query: raw=%d avq=%d blocks, want 1 and 1", last.RawN, last.AVQN)
	}
	if last.Matches != 1 {
		t.Fatalf("primary-key query matched %d tuples", last.Matches)
	}
	// AVQ's average N must be lower: same data in fewer blocks.
	if res.AVQAvgN >= res.RawAvgN {
		t.Fatalf("avg N: avq %.1f >= raw %.1f", res.AVQAvgN, res.RawAvgN)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 5.8") {
		t.Fatal("report missing title")
	}
}

func TestFig59SmallScale(t *testing.T) {
	res, err := RunFig59(context.Background(), Fig59Config{
		Timing: TimingConfig{Tuples: 4000, Repetitions: 2, Seed: 7},
		Fig58:  Fig58Config{Tuples: 4000, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 paper machines + host", len(res.Rows))
	}
	// t1 must be the paper's ~30ms block time.
	if res.T1.Milliseconds() < 30 || res.T1.Milliseconds() > 35 {
		t.Fatalf("t1 = %v", res.T1)
	}
	// The paper's monotone finding: the faster the CPU, the larger the
	// improvement. Paper machines are ordered fastest first.
	hp, sun, dec := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(hp.ImprovementPct > sun.ImprovementPct && sun.ImprovementPct > dec.ImprovementPct) {
		t.Fatalf("improvement not monotone with CPU speed: %.1f, %.1f, %.1f",
			hp.ImprovementPct, sun.ImprovementPct, dec.ImprovementPct)
	}
	// This host is far faster than 1995 hardware, so AVQ must win here.
	host := res.Rows[3]
	if host.ImprovementPct <= 0 {
		t.Fatalf("host improvement = %.1f%%", host.ImprovementPct)
	}
	// I is proportional to block counts: coded index search must be cheaper.
	if hp.IAVQ >= hp.IUncoded {
		t.Fatalf("I avq %v >= I uncoded %v", hp.IAVQ, hp.IUncoded)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 5.9") {
		t.Fatal("report missing title")
	}
}

func TestAblationSmallScale(t *testing.T) {
	res, err := RunAblation(context.Background(), AblationConfig{Tuples: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 20 {
		t.Fatalf("cells = %d, want 4 tests x 5 layouts", len(res.Cells))
	}
	byTest := map[int]map[string]int{}
	for _, c := range res.Cells {
		if byTest[c.Test] == nil {
			byTest[c.Test] = map[string]int{}
		}
		byTest[c.Test][c.Layout] = c.Blocks
	}
	for test, m := range byTest {
		if m["avq"] > m["rep-only"] {
			t.Fatalf("test %d: chained AVQ (%d blocks) worse than unchained (%d)",
				test, m["avq"], m["rep-only"])
		}
		if m["avq"] > m["raw"] {
			t.Fatalf("test %d: AVQ worse than raw", test)
		}
		// Chained layouts store identical diffs, so block counts match to
		// within rounding.
		if diff := m["avq"] - m["delta-chain"]; diff < -1 || diff > 1 {
			t.Fatalf("test %d: avq %d vs delta-chain %d blocks; expected near-identical",
				test, m["avq"], m["delta-chain"])
		}
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Ablation") {
		t.Fatal("report missing title")
	}
}

func TestWordAlignedSchema(t *testing.T) {
	res, err := RunFig57(context.Background(), Fig57Config{TupleCounts: []int{500}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		// Word layout is 60 bytes/tuple vs at most ~30 packed: at least
		// twice the blocks, minus block-boundary rounding.
		if c.UncodedBlocks < c.PackedBlocks*3/2 {
			t.Fatalf("word-aligned baseline %d blocks vs packed %d: too close",
				c.UncodedBlocks, c.PackedBlocks)
		}
	}
}

func TestBlockSizeSweep(t *testing.T) {
	res, err := RunBlockSize(context.Background(), BlockSizeConfig{Tuples: 3000, Sizes: []int{1024, 8192}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	small, large := res.Cells[0], res.Cells[1]
	if small.AVQBlocks <= large.AVQBlocks {
		t.Fatalf("smaller blocks should need more of them: %d vs %d", small.AVQBlocks, large.AVQBlocks)
	}
	for _, c := range res.Cells {
		if c.AVQBlocks >= c.RawBlocks {
			t.Fatalf("no compression at block size %d", c.BlockSize)
		}
		if c.WastePct < 0 || c.WastePct > 60 {
			t.Fatalf("implausible waste %.1f%% at block size %d", c.WastePct, c.BlockSize)
		}
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Block-size") {
		t.Fatal("report missing title")
	}
}

func TestCPUSweep(t *testing.T) {
	res, err := RunCPUSweep(context.Background(), CPUSweepConfig{
		Fig58:    Fig58Config{Tuples: 3000, Seed: 7},
		Speedups: []float64{0.1, 1, 10, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's claim: improvement monotone in CPU speed.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ImprovementPct <= res.Rows[i-1].ImprovementPct {
			t.Fatalf("improvement not monotone: %.1f -> %.1f",
				res.Rows[i-1].ImprovementPct, res.Rows[i].ImprovementPct)
		}
	}
	// At 100x (modern hardware) AVQ must win decisively; at 0.1x the
	// decode cost dominates and AVQ should lose.
	if res.Rows[3].ImprovementPct < 20 {
		t.Fatalf("fast-CPU improvement only %.1f%%", res.Rows[3].ImprovementPct)
	}
	if res.Rows[0].ImprovementPct > 0 {
		t.Fatalf("slow-CPU improvement positive: %.1f%%", res.Rows[0].ImprovementPct)
	}
	if !res.HasCrossover || res.CrossoverSpeedup <= 0.1 || res.CrossoverSpeedup >= 10 {
		t.Fatalf("crossover = %v %.3f", res.HasCrossover, res.CrossoverSpeedup)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "breaks even") {
		t.Fatal("report missing crossover line")
	}
}

func TestUpdatesExperiment(t *testing.T) {
	res, err := RunUpdates(context.Background(), UpdatesConfig{Tuples: 3000, Operations: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.InsertPerOp <= 0 || row.DeletePerOp <= 0 || row.BatchPerOp <= 0 {
			t.Fatalf("%v: non-positive timing %+v", row.Codec, row)
		}
		// A single insert writes at least its home block's fresh page; a
		// batch writes each home block once for all the tuples it takes.
		if row.InsertPages < 1 || row.BatchPages >= row.InsertPages/2 {
			t.Fatalf("%v: %.2f pages written per batched tuple vs %.2f per single insert",
				row.Codec, row.BatchPages, row.InsertPages)
		}
		// Only a split re-encodes; every other write edits its block.
		if row.InsertEncodes >= row.InsertPages/2 {
			t.Fatalf("%v: %.2f blocks re-encoded per single insert, %.2f pages written", row.Codec, row.InsertEncodes, row.InsertPages)
		}
		if row.Blocks <= 0 || row.BlocksAfter < row.Blocks {
			t.Fatalf("%v: blocks %d -> %d", row.Codec, row.Blocks, row.BlocksAfter)
		}
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Section 4.2") {
		t.Fatal("report missing title")
	}
}
