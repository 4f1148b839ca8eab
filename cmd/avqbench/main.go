// Command avqbench regenerates the tables and figures of the paper's
// evaluation (Section 5) on this host.
//
// Usage:
//
//	avqbench -exp fig5.7|fig5.8|fig5.9|timing|ablation|blocksize|cpusweep|updates|all [flags]
//
// Flags scale the workloads; defaults reproduce the paper's published
// relation characteristics (10^5 tuples for timing, ~189 uncoded blocks
// for the query simulation).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig5.7, fig5.8, fig5.9, timing, ablation, blocksize, cpusweep, updates, or all")
		tuples   = flag.Int("tuples", 0, "override relation size (0 = per-experiment default)")
		reps     = flag.Int("reps", 0, "timing repetitions (0 = paper's 100)")
		pageSize = flag.Int("pagesize", 0, "block size in bytes (0 = paper's 8192)")
		seed     = flag.Int64("seed", 1995, "generator seed")
	)
	flag.Parse()
	// Ctrl-C cancels the running experiment at the next block boundary;
	// every experiment threads this ctx down to the executor.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *exp, *tuples, *reps, *pageSize, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "avqbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, exp string, tuples, reps, pageSize int, seed int64) error {
	out := os.Stdout
	sep := func() { fmt.Fprintln(out, "\n================================================================") }
	runOne := func(name string) error {
		switch name {
		case "fig5.7":
			cfg := experiments.Fig57Config{PageSize: pageSize, Seed: seed}
			if tuples > 0 {
				cfg.TupleCounts = []int{tuples}
			}
			r, err := experiments.RunFig57(ctx, cfg)
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "timing":
			r, err := experiments.RunTiming(ctx, experiments.TimingConfig{
				Tuples: tuples, Repetitions: reps, PageSize: pageSize, Seed: seed,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "fig5.8":
			r, err := experiments.RunFig58(ctx, experiments.Fig58Config{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "fig5.9":
			r, err := experiments.RunFig59(ctx, experiments.Fig59Config{
				Timing:   experiments.TimingConfig{Tuples: tuples, Repetitions: reps, Seed: seed},
				Fig58:    experiments.Fig58Config{Tuples: tuples, Seed: seed},
				PageSize: pageSize,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "ablation":
			r, err := experiments.RunAblation(ctx, experiments.AblationConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "blocksize":
			r, err := experiments.RunBlockSize(ctx, experiments.BlockSizeConfig{
				Tuples: tuples, Seed: seed,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "updates":
			r, err := experiments.RunUpdates(ctx, experiments.UpdatesConfig{
				Tuples: tuples, PageSize: pageSize, Seed: seed,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		case "cpusweep":
			r, err := experiments.RunCPUSweep(ctx, experiments.CPUSweepConfig{
				Fig58:    experiments.Fig58Config{Tuples: tuples, Seed: seed},
				PageSize: pageSize,
			})
			if err != nil {
				return err
			}
			return r.WriteText(out)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if exp != "all" {
		return runOne(exp)
	}
	for i, name := range []string{"fig5.7", "timing", "fig5.8", "fig5.9", "ablation", "blocksize", "cpusweep", "updates"} {
		if i > 0 {
			sep()
		}
		if err := runOne(name); err != nil {
			return err
		}
	}
	return nil
}
