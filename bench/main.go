// Command bench is the end-to-end ledger: it builds a 1M-tuple relation,
// serves it from an in-process server.Server over loopback HTTP, drives
// it closed-loop, checks every answer against an oracle, and reports
// end-to-end metrics (--trace 0) or the per-layer staircase (--trace 1).
// README.md in this directory is the manual.
//
//	sh bench/run.sh --workload point_hot --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh                      # all five workloads, both runs, one ledger
//	sh bench/run.sh -repeat 5            # five sets, quartiles per metric
//	sh bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envelope is carried by every output file: what ran, where, on what.
type envelope struct {
	CPUs         int     `json:"cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	TimedSeconds float64 `json:"timed_seconds"`
	Tuples       int     `json:"tuples"`
	Setups       int     `json:"setups_per_timed_run"`
}

// ledger is an output file: one or more sets of per-workload results.
type ledger struct {
	Envelope envelope  `json:"envelope"`
	Results  []*result `json:"results"`
	// Derived holds cross-workload figures (see derive).
	Derived map[string]any `json:"derived,omitempty"`
}

func newEnvelope(cfg config) envelope {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envelope{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Clients: cfg.clients, TimedSeconds: cfg.seconds,
		Tuples: cfg.tuples, Setups: cfg.setups,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// dump writes the staircase's spans, in memory until now, to path.
func (sc *staircase) dump(path string) error {
	return writeJSON(path, map[string]any{
		"workload": sc.in.def.name,
		"requests": sc.reqs,
		"spans":    sc.in.tr.spans,
	})
}

// contractLine is the last line of a single-workload run's output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a result for people: every metric by name with its unit,
// sample counts beside the percentiles.
func report(res *result) {
	kind := "timed"
	if res.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s (%s run): %d attempted, %d failed, error_rate %.6f\n", res.Workload, kind, res.Attempted, res.Failed, res.ErrorRate)
	fmt.Printf("   %s; fsync: %s\n", res.Closed, res.FsyncPolicy)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Printf("   %-38s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	for c := class(0); c < numClasses; c++ {
		if row, ok := res.Classes[c.String()]; ok {
			fmt.Printf("   class %-5s n=%-7d p50 %.4f ms  p95 %.4f ms  p99 %.4f ms\n", c, row.Samples, row.P50Ms, row.P95Ms, row.P99Ms)
		}
	}
	for name, reason := range res.Skipped {
		fmt.Printf("   skipped %s: %s\n", name, reason)
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
}

// runOne runs one workload once, timed or traced.
func runOne(ctx context.Context, cfg config, def *workloadDef, trace bool) (*result, error) {
	if trace {
		return runTraced(ctx, cfg, def)
	}
	return runTimed(ctx, cfg, def)
}

// runSets runs `sets` sets of the chosen workloads and modes. Odd sets run
// the workloads in reverse, so two ledgers of the same commit never share
// one invocation order throughout.
func runSets(ctx context.Context, cfg config, defs []*workloadDef, modes []bool, sets int) (*ledger, error) {
	led := &ledger{Envelope: newEnvelope(cfg)}
	for set := 0; set < sets; set++ {
		for i := range defs {
			def := defs[i]
			if set%2 == 1 {
				def = defs[len(defs)-1-i]
			}
			for _, trace := range modes {
				res, err := runOne(ctx, cfg, def, trace)
				if err != nil {
					return nil, err
				}
				report(res)
				led.Results = append(led.Results, res)
			}
		}
	}
	led.Derived = derive(led)
	return led, nil
}

// options are the command line.
type options struct {
	workload string
	trace    int
	specPath string
	compare  bool
	repeat   int
	cfg      config
}

func main() {
	var o options
	o.cfg = config{tuples: relTuples, clients: min(runtime.NumCPU(), maxClients), setups: setupsPerRun}
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all five")
	flag.Int64Var(&o.cfg.seed, "seed", 1, "seed of the relation and of every request stream")
	flag.Float64Var(&o.cfg.seconds, "seconds", 10, "timed phase in seconds")
	flag.IntVar(&o.trace, "trace", -1, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both")
	flag.StringVar(&o.cfg.outDir, "out", "bench/out", "directory for trace dumps, result files and scratch databases")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark contract, read by -compare and -repeat for the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two ledger files given as arguments")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many sets and report each metric's quartiles")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two ledger files")
		}
		return compareLedgers(o.specPath, args[0], args[1])
	}
	cfg := o.cfg
	if cfg.seconds <= 0 || o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1")
	}
	var defs []*workloadDef
	if o.workload == "" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if def := findWorkload(o.workload); def != nil {
		defs = []*workloadDef{def}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	modes := []bool{false, true}
	if o.trace >= 0 {
		modes = []bool{o.trace == 1}
	}
	ctx := context.Background()

	// The driver's form: one workload, one mode, the contract line last.
	if len(defs) == 1 && len(modes) == 1 && o.repeat == 0 {
		res, err := runOne(ctx, cfg, defs[0], modes[0])
		if err != nil {
			return err
		}
		report(res)
		led := &ledger{Envelope: newEnvelope(cfg), Results: []*result{res}}
		if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-trace%d.json", res.Workload, o.trace)), led); err != nil {
			return err
		}
		line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
		return nil
	}

	led, err := runSets(ctx, cfg, defs, modes, max(o.repeat, 1))
	if err != nil {
		return err
	}
	name := "ledger.json"
	if o.repeat > 0 {
		name = fmt.Sprintf("ledger-repeat%d.json", o.repeat)
	}
	path := filepath.Join(cfg.outDir, name)
	if err := writeJSON(path, led); err != nil {
		return err
	}
	if o.repeat > 0 {
		spec, err := loadSpec(o.specPath)
		if err != nil {
			return err
		}
		printQuartiles(spec, led)
	}
	fmt.Println("ledger written to", path)
	for _, res := range led.Results {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}
