package main

import (
	"context"
	"testing"
)

// TestAllExperimentsSmallScale drives every experiment at reduced scale;
// the experiment correctness itself is covered in internal/experiments.
func TestAllExperimentsSmallScale(t *testing.T) {
	for _, exp := range []string{"fig5.7", "timing", "fig5.8", "fig5.9", "ablation", "blocksize", "cpusweep", "updates"} {
		if err := run(context.Background(), exp, 2000, 1, 0, 7); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// TestUnknownExperiment: a name outside the list fails, and so do the
// retired per-layer experiments, which are go test benchmarks beside the
// code they measure.
func TestUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nope", "obs", "decode", "join", "wal"} {
		err := run(context.Background(), exp, 100, 1, 0, 7)
		if err == nil || err.Error() != `unknown experiment "`+exp+`"` {
			t.Fatalf("-exp %s: err = %v, want unknown experiment", exp, err)
		}
	}
}
