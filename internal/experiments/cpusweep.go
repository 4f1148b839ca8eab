package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/simdisk"
	"repro/internal/storage"
)

// CPUSweepConfig parameterizes the processor-technology sweep.
type CPUSweepConfig struct {
	// Fig58 configures the N measurement.
	Fig58 Fig58Config
	// Speedups are the CPU scale factors relative to the paper's HP
	// 9000/735; 1.0 is 1995's fastest tested machine.
	Speedups []float64
	// IndexBlockFraction as in Fig59Config.
	IndexBlockFraction float64
	// PageSize is the block size.
	PageSize int
}

func (c *CPUSweepConfig) fillDefaults() {
	if len(c.Speedups) == 0 {
		c.Speedups = []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 64, 256}
	}
	if c.IndexBlockFraction == 0 {
		c.IndexBlockFraction = 0.05
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	c.Fig58.PageSize = c.PageSize
}

// CPUSweepRow is the response-time model at one CPU speed.
type CPUSweepRow struct {
	Speedup        float64
	T2             time.Duration // decode per block at this speed
	T3             time.Duration // extract per block at this speed
	C1, C2         time.Duration
	ImprovementPct float64
}

// CPUSweepResult extrapolates the paper's closing claim — "improvements
// which are likely to increase with processor technology" — by sweeping
// the CPU speed in the C1/C2 model while the disk stays at 1995 speeds.
// The crossover is the speedup below which AVQ loses (decode cost exceeds
// the I/O saving).
type CPUSweepResult struct {
	Rows []CPUSweepRow
	// CrossoverSpeedup is the interpolated speed at which C1 == C2; NaN
	// when AVQ wins at every swept speed.
	CrossoverSpeedup float64
	HasCrossover     bool
}

// RunCPUSweep measures N once, then evaluates the model across CPU speeds.
// The baseline t2/t3 are the paper's HP 9000/735 measurements.
func RunCPUSweep(ctx context.Context, cfg CPUSweepConfig) (*CPUSweepResult, error) {
	cfg.fillDefaults()
	fig58, err := RunFig58(ctx, cfg.Fig58)
	if err != nil {
		return nil, err
	}
	hp := PaperMachines()[0]
	t1 := simdisk.PaperParams().BlockTime(cfg.PageSize)
	iUnc := time.Duration(cfg.IndexBlockFraction * float64(fig58.RawBlocks) * float64(t1))
	iAVQ := time.Duration(cfg.IndexBlockFraction * float64(fig58.AVQBlocks) * float64(t1))
	res := &CPUSweepResult{}
	var prev *CPUSweepRow
	for _, s := range cfg.Speedups {
		t2 := time.Duration(float64(hp.BlockDecode) / s)
		t3 := time.Duration(float64(hp.Extract) / s)
		c2 := iUnc + time.Duration(fig58.RawAvgN*float64(t1+t3))
		c1 := iAVQ + time.Duration(fig58.AVQAvgN*float64(t1+t2))
		row := CPUSweepRow{
			Speedup: s, T2: t2, T3: t3, C1: c1, C2: c2,
			ImprovementPct: 100 * (1 - float64(c1)/float64(c2)),
		}
		if prev != nil && !res.HasCrossover &&
			prev.ImprovementPct < 0 && row.ImprovementPct >= 0 {
			// Linear interpolation in log space of the speedup.
			frac := -prev.ImprovementPct / (row.ImprovementPct - prev.ImprovementPct)
			res.CrossoverSpeedup = prev.Speedup * math.Pow(row.Speedup/prev.Speedup, frac)
			res.HasCrossover = true
		}
		res.Rows = append(res.Rows, row)
		prev = &res.Rows[len(res.Rows)-1]
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *CPUSweepResult) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "CPU-technology sweep — the paper's closing claim, extrapolated")
	fmt.Fprintln(w, "speedup 1.0 = HP 9000/735 (1995); disk fixed at 1995 parameters")
	fmt.Fprintln(w)
	tbl := &textTable{header: []string{"speedup", "t2 decode", "t3 extract", "C2 unc", "C1 avq", "improvement"}}
	for _, row := range r.Rows {
		tbl.addRow(
			fmt.Sprintf("%gx", row.Speedup),
			ms(row.T2),
			ms(row.T3),
			sec(row.C2),
			sec(row.C1),
			fmt.Sprintf("%.1f%%", row.ImprovementPct),
		)
	}
	if err := tbl.write(w); err != nil {
		return err
	}
	if r.HasCrossover {
		fmt.Fprintf(w, "\nAVQ breaks even at ~%.2fx the HP 9000/735's speed; slower CPUs lose to decode cost\n",
			r.CrossoverSpeedup)
	} else {
		fmt.Fprintln(w, "\nAVQ wins at every swept CPU speed")
	}
	return nil
}
