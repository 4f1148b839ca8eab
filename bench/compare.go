package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json as far as this program reads it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	spec := new(benchSpec)
	return spec, readJSON(path, spec)
}

func loadLedger(path string) (*ledger, error) {
	led := new(ledger)
	return led, readJSON(path, led)
}

// quartiles are the cut points Python's statistics.quantiles(vs, n=4)
// gives (the exclusive method), which is what the driver computes; with
// one value all three are that value.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	cut := func(i int) float64 {
		// As CPython does: clamp j first, then take delta from the clamped
		// j, so the outer cut points extrapolate when n < 3.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// values collects one metric of one workload's timed results.
func (led *ledger) values(workload, name string) []float64 {
	var vs []float64
	for _, res := range led.Results {
		if res.Workload != workload || res.Trace {
			continue
		}
		if m, ok := res.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// classP50 collects a class's median latency over a workload's timed results.
func (led *ledger) classP50(workload, cls string) []float64 {
	var vs []float64
	for _, res := range led.Results {
		if row, ok := res.Classes[cls]; ok && res.Workload == workload && !res.Trace {
			vs = append(vs, row.P50Ms)
		}
	}
	return vs
}

// derive computes the figures that need two workloads: what sharding
// costs a class relative to the single table serving the same generator.
// They are ratios, never a pass or a fail.
func derive(led *ledger) map[string]any {
	d := map[string]any{}
	ratio := func(name, cls, base string) {
		_, num, _ := quartiles(led.classP50("shard_mix", cls))
		_, den, _ := quartiles(led.classP50(base, cls))
		if num > 0 && den > 0 {
			d[name] = map[string]any{"value": num / den, "unit": "ratio",
				"is": fmt.Sprintf("shard_mix %s_p50_ms / %s %s_p50_ms", cls, base, cls)}
		}
	}
	ratio("shard.point_ratio", "point", "point_hot")
	ratio("shard.agg_ratio", "agg", "scan_flat")
	if cpus := runtime.NumCPU(); cpus < 4 {
		d["shard.scan_speedup_verdict"] = map[string]any{"skipped": fmt.Sprintf("%d CPUs: the >=2x-at-4-shards verdict needs at least 4", cpus)}
	}
	return d
}

// printQuartiles reports, per end-to-end metric and workload, the
// quartiles over a ledger's sets and the spread against the bound.
func printQuartiles(spec *benchSpec, led *ledger) {
	fmt.Printf("%-12s %-28s %3s %12s %12s %12s %8s %6s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vs := led.values(w.Name, m.Name)
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-12s %-28s %3d %12.4f %12.4f %12.4f %7.2f%% %5.0f%%\n", w.Name, m.Name, len(vs), q1, q2, q3, 100*spread(vs), 100*m.Bound)
		}
	}
}

// verdict compares medians a (before) and b (after) of one metric.
func verdict(m specMetric, a, b []float64) (delta float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / ma
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound:
		// Run-to-run spread wider than the bound: neither a regression
		// nor its absence can be read off these runs.
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "regressed"
	default:
		return delta, "ok"
	}
}

// differences lists the settings on which two envelopes disagree. Two
// ledgers measured under different settings ran different workloads, and
// their medians say nothing about the program.
func (e envelope) differences(o envelope) []string {
	var diffs []string
	add := func(name string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("cpus", e.CPUs, o.CPUs)
	add("gomaxprocs", e.GOMAXPROCS, o.GOMAXPROCS)
	add("seed", e.Seed, o.Seed)
	add("clients", e.Clients, o.Clients)
	add("timed_seconds", e.TimedSeconds, o.TimedSeconds)
	add("tuples", e.Tuples, o.Tuples)
	add("setups_per_timed_run", e.Setups, o.Setups)
	return diffs
}

// compareLedgers prints, per end-to-end metric and workload, both
// medians, the change, the bound and the verdict. It refuses two ledgers
// whose envelopes differ, and fails when anything regressed, when a
// metric is present on one side only, or when more operations failed
// than before.
func compareLedgers(specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadLedger(pathA)
	if err != nil {
		return err
	}
	b, err := loadLedger(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (commit %s, %d CPUs)\nb: %s (commit %s, %d CPUs)\n", pathA, a.Envelope.Commit, a.Envelope.CPUs, pathB, b.Envelope.Commit, b.Envelope.CPUs)
	if diffs := a.Envelope.differences(b.Envelope); len(diffs) > 0 {
		return fmt.Errorf("the ledgers were not measured under the same settings: %s", strings.Join(diffs, "; "))
	}
	fmt.Printf("%-12s %-28s %5s %12s %12s %8s %6s  %s\n", "workload", "metric", "n", "median a", "median b", "delta", "bound", "verdict")
	regressed, missing := 0, 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // neither ledger ran this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				missing++
				fmt.Printf("%-12s %-28s %2d/%-2d %55s\n", w.Name, m.Name, len(va), len(vb), "missing on one side")
				continue
			}
			delta, v := verdict(m, va, vb)
			if v == "regressed" {
				regressed++
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-12s %-28s %2d/%-2d %12.4f %12.4f %+7.2f%% %5.0f%%  %s\n", w.Name, m.Name, len(va), len(vb), ma, mb, 100*delta, 100*m.Bound, v)
		}
		fa, fb := failures(a, w.Name), failures(b, w.Name)
		v := "ok"
		if fb > fa {
			v = "regressed"
			regressed++
		}
		fmt.Printf("%-12s %-28s %5s %12d %12d %8s %6s  %s\n", w.Name, "failed operations", "", fa, fb, "", "none", v)
	}
	if regressed > 0 || missing > 0 {
		return fmt.Errorf("%d metric x workload pairs regressed, %d are present in one ledger only", regressed, missing)
	}
	return nil
}

func failures(led *ledger, workload string) int {
	n := 0
	for _, res := range led.Results {
		if res.Workload == workload {
			n += res.Failed
		}
	}
	return n
}
