package main

import (
	"context"
	"os"
	"testing"
)

// TestAllExperimentsSmallScale drives every experiment at reduced scale;
// the experiment correctness itself is covered in internal/experiments.
// The obs experiment writes BENCH_obs.json, so the test runs in a scratch
// directory.
func TestAllExperimentsSmallScale(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, exp := range []string{"fig5.7", "timing", "fig5.8", "fig5.9", "ablation", "blocksize", "cpusweep", "updates", "obs"} {
		if err := run(context.Background(), exp, 2000, 1, 0, 7, 2); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if _, err := os.Stat("BENCH_obs.json"); err != nil {
		t.Fatalf("obs experiment did not write BENCH_obs.json: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "nope", 100, 1, 0, 7, 0); err != nil {
		if err.Error() != `unknown experiment "nope"` {
			t.Fatalf("unexpected error: %v", err)
		}
	} else {
		t.Fatal("unknown experiment succeeded")
	}
}
