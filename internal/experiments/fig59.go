package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/simdisk"
	"repro/internal/storage"
)

// Fig59Config parameterizes the full response-time experiment.
type Fig59Config struct {
	// Timing configures the Section 5.2 host measurement.
	Timing TimingConfig
	// Fig58 configures the blocks-accessed simulation.
	Fig58 Fig58Config
	// IndexBlockFraction is the paper's assumption that secondary index
	// blocks amount to this fraction of data blocks (Section 5.3.1:
	// "Assuming the number of secondary index blocks to be 5%").
	IndexBlockFraction float64
	// PageSize is the block size; default 8192.
	PageSize int
}

func (c *Fig59Config) fillDefaults() {
	if c.IndexBlockFraction == 0 {
		c.IndexBlockFraction = 0.05
	}
	if c.PageSize == 0 {
		c.PageSize = storage.DefaultPageSize
	}
	c.Timing.PageSize = c.PageSize
	c.Fig58.PageSize = c.PageSize
}

// Fig59MachineRow is the response-time model evaluated for one machine.
type Fig59MachineRow struct {
	Machine Machine
	// IUncoded and IAVQ are index search times (rows 5-6).
	IUncoded, IAVQ time.Duration
	// C2 and C1 are the total I/O times, uncoded and AVQ (rows 9-10).
	C2, C1 time.Duration
	// ImprovementPct is row 11: 100(1 - C1/C2).
	ImprovementPct float64
}

// Fig59Result is the regenerated Figure 5.9.
type Fig59Result struct {
	Timing *TimingResult
	Fig58  *Fig58Result
	// T1 is the modeled single-block I/O time (row 3).
	T1 time.Duration
	// NUncoded and NAVQ are the average blocks accessed (rows 7-8).
	NUncoded, NAVQ float64
	Rows           []Fig59MachineRow
}

// paperFig59 holds the published rows 9-11 for comparison in WriteText.
var paperFig59 = map[string]struct {
	c2, c1      float64 // seconds
	improvement float64
}{
	"HP 9000/735":  {5.093, 2.506, 50.8},
	"Sun 4/50":     {6.013, 3.966, 34.0},
	"DEC 5000/120": {6.403, 5.116, 20.1},
}

// RunFig59 regenerates Figure 5.9. It measures block coding/decoding on
// this host (Section 5.2), measures N by running the Figure 5.8 query
// simulation, and evaluates the paper's cost model
//
//	C1 = I + N(t1 + t2)   (compressed)
//	C2 = I + N(t1 + t3)   (uncompressed)
//
// for the three published 1995 machines and for this host.
func RunFig59(ctx context.Context, cfg Fig59Config) (*Fig59Result, error) {
	cfg.fillDefaults()
	timing, err := RunTiming(ctx, cfg.Timing)
	if err != nil {
		return nil, err
	}
	fig58, err := RunFig58(ctx, cfg.Fig58)
	if err != nil {
		return nil, err
	}
	t1 := simdisk.PaperParams().BlockTime(cfg.PageSize)
	res := &Fig59Result{
		Timing:   timing,
		Fig58:    fig58,
		T1:       t1,
		NUncoded: fig58.RawAvgN,
		NAVQ:     fig58.AVQAvgN,
	}
	iUnc := time.Duration(cfg.IndexBlockFraction * float64(fig58.RawBlocks) * float64(t1))
	iAVQ := time.Duration(cfg.IndexBlockFraction * float64(fig58.AVQBlocks) * float64(t1))
	for _, m := range append(PaperMachines(), timing.Host) {
		c2 := iUnc + time.Duration(res.NUncoded*float64(t1+m.Extract))
		c1 := iAVQ + time.Duration(res.NAVQ*float64(t1+m.BlockDecode))
		res.Rows = append(res.Rows, Fig59MachineRow{
			Machine:        m,
			IUncoded:       iUnc,
			IAVQ:           iAVQ,
			C2:             c2,
			C1:             c1,
			ImprovementPct: 100 * (1 - float64(c1)/float64(c2)),
		})
	}
	return res, nil
}

func ms(d time.Duration) string  { return fmt.Sprintf("%.2fms", float64(d)/1e6) }
func sec(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

// WriteText renders the result in the shape of Figure 5.9, with the
// paper's published values alongside where they exist.
func (r *Fig59Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 5.9 — Response time improvements")
	fmt.Fprintf(w, "t1 single-block I/O (row 3): %s (paper: 30.00ms)\n", ms(r.T1))
	fmt.Fprintf(w, "N uncoded (row 7): %.1f (paper: 153.6)   N avq (row 8): %.1f (paper: 55.0)\n\n",
		r.NUncoded, r.NAVQ)
	tbl := &textTable{header: []string{
		"machine", "code/blk", "t2 decode/blk", "t3 extract/blk",
		"I unc", "I avq", "C2 unc", "C1 avq", "improve", "paper C2/C1/impr",
	}}
	for _, row := range r.Rows {
		paper := "-"
		if p, ok := paperFig59[row.Machine.Name]; ok {
			paper = fmt.Sprintf("%.3fs/%.3fs/%.1f%%", p.c2, p.c1, p.improvement)
		}
		tbl.addRow(
			row.Machine.Name,
			ms(row.Machine.BlockCode),
			ms(row.Machine.BlockDecode),
			ms(row.Machine.Extract),
			sec(row.IUncoded),
			sec(row.IAVQ),
			sec(row.C2),
			sec(row.C1),
			fmt.Sprintf("%.1f%%", row.ImprovementPct),
			paper,
		)
	}
	return tbl.write(w)
}
