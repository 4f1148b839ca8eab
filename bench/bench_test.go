package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/table"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestTablesMatchSpec holds the in-code metric and workload tables to
// BENCHMARK.json: same names, units and directions, in both directions.
func TestTablesMatchSpec(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []specMetric) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in code, %d in %s", kind, len(defs), len(listed), specPath)
		}
		for i, d := range defs {
			if i >= len(listed) {
				break
			}
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: code has %v, spec has %+v", kind, i, d, l)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", kind, d.name)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in code, %d in %s", len(workloads), len(spec.Workloads), specPath)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: code has %q, spec has %q", i, workloads[i].name, w.Name)
		}
	}
}

// metricKeys returns the keys under "metrics" of an encoded contract line
// with their number of occurrences, straight from the token stream, so a
// duplicate key cannot hide behind a map.
func metricKeys(t *testing.T, line []byte) map[string]int {
	t.Helper()
	var outer map[string]json.RawMessage
	if err := json.Unmarshal(line, &outer); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := outer[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if len(outer) != 4 {
		t.Errorf("contract line has %d keys, want exactly 4", len(outer))
	}
	keys := map[string]int{}
	dec := json.NewDecoder(bytes.NewReader(outer["metrics"]))
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				depth++
			} else {
				depth--
			}
		case string:
			if depth == 1 {
				keys[v]++
				var m metric
				if err := dec.Decode(&m); err != nil || m.Unit == "" {
					t.Errorf("metric %s: no unit (%v)", v, err)
				}
			}
		}
	}
	return keys
}

// TestEveryWorkload runs all five workloads, timed and traced, at 20k
// tuples for 0.3 s, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json names.
func TestEveryWorkload(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{tuples: 20_000, seed: 1, seconds: 0.3, clients: 2, setups: 1, outDir: t.TempDir()}
	for _, w := range spec.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			t.Fatalf("workload %s is in %s but not in the program", w.Name, specPath)
		}
		for _, trace := range []bool{false, true} {
			res, err := runOne(context.Background(), cfg, def, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.ErrorRate != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Errors)
			}
			line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
			if err != nil {
				t.Fatal(err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := metricKeys(t, line)
			for _, m := range want {
				if got[m.Name] != 1 {
					t.Errorf("%s trace=%v: metric %s emitted %d times", w.Name, trace, m.Name, got[m.Name])
				}
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, spec says %q", w.Name, trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d named in %s", w.Name, trace, len(got), len(want), specPath)
			}
			if trace && len(res.Staircase) == 0 {
				t.Errorf("%s: the traced run replayed nothing", w.Name)
			}
		}
	}
}

// TestStreamsAreSeeded: equal seeds give byte-identical request streams,
// different seeds different ones.
func TestStreamsAreSeeded(t *testing.T) {
	bodies := func(def *workloadDef, seed int64) []byte {
		var all []byte
		st := newStreams(def, seed, 1)[0]
		for i := 0; i < 500; i++ {
			r := st.next()
			all = append(all, r.path()...)
			all = append(all, r.body...)
		}
		return all
	}
	for i := range workloads {
		def := &workloads[i]
		a, b, c := bodies(def, 7), bodies(def, 7), bodies(def, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", def.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: streams of seeds 7 and 8 are identical", def.name)
		}
	}
}

// TestOracle: the oracle accepts what a real engine answers to every read
// class, and rejects each answer once it is corrupted.
func TestOracle(t *testing.T) {
	ctx := context.Background()
	for _, rs := range []*relSpec{&flat8, &wide38} {
		rd, err := generate(rs, 20_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		rd.ora, _ = buildOracle(rd)
		tb, err := table.Create(rd.schema, table.WithCodec(core.CodecAVQ), table.WithPageSize(pageSize))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, rd.tuples); err != nil {
			t.Fatal(err)
		}
		mix := [numClasses]int{classPoint: 8, classAgg: 9, classFull: 3}
		st := newStream(rs, mix, 11, 0, false)
		corrupted := 0
		for i := 0; i < 200; i++ {
			q := st.next().q
			resp, err := q.Run(ctx, tb)
			if err != nil {
				t.Fatal(err)
			}
			if err := rd.ora.checkQuery(q, resp, false); err != nil {
				t.Fatalf("%s: oracle rejects the engine's answer: %v", rs.name, err)
			}
			for name, corrupt := range corruptions {
				bad := cloneResponse(t, resp)
				if !corrupt(bad) {
					continue
				}
				corrupted++
				if rd.ora.checkQuery(q, bad, false) == nil {
					t.Errorf("%s: oracle accepts a %s answer with %s", rs.name, q.Op, name)
				}
			}
		}
		if corrupted < 200 {
			t.Errorf("%s: only %d corrupted answers were tried", rs.name, corrupted)
		}
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// corruptions each damage a response in place and report whether there
// was something to damage.
var corruptions = map[string]func(*server.QueryResponse) bool{
	"count off by one": func(r *server.QueryResponse) bool { r.Count++; return true },
	"a row dropped": func(r *server.QueryResponse) bool {
		if len(r.Rows) == 0 {
			return false
		}
		r.Rows, r.Count = r.Rows[1:], r.Count-1
		return true
	},
	"a value changed in a row": func(r *server.QueryResponse) bool {
		if len(r.Rows) == 0 {
			return false
		}
		last := r.Rows[len(r.Rows)-1]
		last[len(last)-1] ^= 1
		return true
	},
	"sum off by one": func(r *server.QueryResponse) bool {
		if r.Agg == nil {
			return false
		}
		r.Agg.Sum++
		return true
	},
	"max raised": func(r *server.QueryResponse) bool {
		if r.Agg == nil {
			return false
		}
		r.Agg.Max++
		return true
	},
	"a group's count moved to another": func(r *server.QueryResponse) bool {
		if len(r.Groups) < 2 {
			return false
		}
		r.Groups[0].Agg.Count--
		r.Groups[1].Agg.Count++
		return true
	},
}

func cloneResponse(t *testing.T, r *server.QueryResponse) *server.QueryResponse {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	out := new(server.QueryResponse)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelfTimes: a request's self times add up to exactly its http span,
// and concurrent file reads (a scatter's) count once for the time they
// overlap.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "http", Start: 0, End: 1000, Parent: -1},
		{Name: "engine", Start: 100, End: 900, Parent: 0},
		{Name: "storage.read", Start: 200, End: 300, Parent: 1},
		{Name: "storage.read", Start: 250, End: 400, Parent: 1}, // overlaps the first by 50
		{Name: "storage.meta", Start: 500, End: 520, Parent: 1},
		{Name: "wal.sync", Start: 600, End: 700, Parent: 1},
		{Name: "core.decode", Start: 2000, End: 2300, Parent: 1, Replay: true},
	}
	self, fits := selfTimes(spans)
	want := map[string]int64{"server": 200, "storage": 220, "wal": 100, "core": 300, "engine": 180}
	var sum int64
	for layer, ns := range want {
		if self[layer] != ns {
			t.Errorf("%s: self time %d, want %d", layer, self[layer], ns)
		}
		sum += self[layer]
	}
	if sum != 1000 || len(self) != len(want) || !fits {
		t.Errorf("self times %v: sum %d (want the http span, 1000), fits %v", self, sum, fits)
	}
	// A replay longer than what is left of the Engine call does not fit.
	spans[6].End = 2700
	if self, fits := selfTimes(spans); fits || self["engine"] != -220 {
		t.Errorf("a 700 ns decode inside 480 ns of engine compute: fits %v, engine %d", fits, self["engine"])
	}
}

// TestDecodeReplayHeldToEngine: on both read paths the decode replay
// reads what a real engine says it read, and a request on which the two
// disagree is refused, so the mirror cannot drift unnoticed.
func TestDecodeReplayHeldToEngine(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"scan_flat", "scan_wide38"} {
		def := findWorkload(name)
		rd, err := generate(def.rel, 20_000, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, sorted := buildOracle(rd)
		tw, err := buildTwin(ctx, def, rd.schema, sorted, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tb, err := table.Create(rd.schema, def.tableOptions(nil)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.BulkLoadContext(ctx, rd.tuples); err != nil {
			t.Fatal(err)
		}
		in := &instance{def: def, rd: rd, tr: new(tracer)}
		sc := newStaircase(in, tw, &phase{})
		in.tr.beginRequest(0)
		st := newStream(def.rel, def.mix, 1, 0, true)
		for i := 0; i < 40; i++ {
			q := st.next().q
			resp, err := q.Run(ctx, tb)
			if err != nil {
				t.Fatal(err)
			}
			rec := replayed{Wire: resp.Stats}
			if err := sc.decodeReplay(q, &rec); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rec.Rows < resp.Stats.Matches {
				t.Errorf("%s: replay decoded %d rows for %d matches", name, rec.Rows, resp.Stats.Matches)
			}
			off := *resp.Stats
			off.BlocksRead++
			if sc.decodeReplay(q, &replayed{Wire: &off}) == nil {
				t.Errorf("%s: a request that read one block more than the replay was accepted", name)
			}
		}
		if err := errors.Join(tb.Close(), tw.close()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	// Below four values the outer cut points extrapolate, as Python's do:
	// -repeat 2 and -repeat 3 must see a spread, not a negative or a
	// collapsed one.
	q1, q2, q3 = quartiles([]float64{20, 10})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 40, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v %v %v, want 10 20 40", q1, q2, q3)
	}
	if _, v := verdict(specMetric{Better: "lower", Bound: 0.25}, []float64{10, 20}, []float64{10, 20}); v != "unresolved" {
		t.Errorf("two runs a factor of two apart: verdict %q, want unresolved", v)
	}
}

// TestCompareRefusesDifferentSettings: two ledgers measured under
// different settings do not compare, and a metric one of them lacks is
// reported, not skipped.
func TestCompareRefusesDifferentSettings(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envelope, metrics map[string]metric) string {
		path := filepath.Join(dir, name)
		led := &ledger{Envelope: env, Results: []*result{{Workload: "point_hot", Correct: true, Attempted: 1, Metrics: metrics}}}
		if err := writeJSON(path, led); err != nil {
			t.Fatal(err)
		}
		return path
	}
	all := map[string]metric{}
	for _, d := range endToEnd {
		all[d.name] = metric{Value: 1, Unit: d.unit}
	}
	env := envelope{CPUs: 2, GOMAXPROCS: 2, Seed: 1, Clients: 2, TimedSeconds: 10, Tuples: relTuples, Setups: setupsPerRun}
	base := write("a.json", env, all)
	if err := compareLedgers(specPath, base, write("same.json", env, all)); err != nil {
		t.Errorf("equal ledgers: %v", err)
	}
	other := env
	other.TimedSeconds = 20
	err := compareLedgers(specPath, base, write("longer.json", other, all))
	if err == nil || !strings.Contains(err.Error(), "timed_seconds") {
		t.Errorf("ledgers of 10 s and 20 s phases compared: %v", err)
	}
	fewer := map[string]metric{"setup_s": all["setup_s"]}
	err = compareLedgers(specPath, base, write("fewer.json", env, fewer))
	if err == nil || !strings.Contains(err.Error(), "one ledger only") {
		t.Errorf("a ledger lacking metrics compared: %v", err)
	}
}

// TestVerdict: worse than the bound regresses, spread wider than the
// bound is unresolved, and direction follows "better".
func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, steady, []float64{80, 150, 100, 60, 130}, "unresolved"},
	}
	for i, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
