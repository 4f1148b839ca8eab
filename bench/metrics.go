package main

// The metric tables. BENCHMARK.json lists the same names, units and
// directions (bench_test.go holds the two together); the bounds live only
// there, because the driver and -compare read them from the file.

type metricDef struct {
	name, unit, better string
}

// endToEnd is what a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"primary_p50_ms", "ms", "lower"},
	{"primary_p95_ms", "ms", "lower"},
	{"stored_bytes_per_user_byte", "ratio", "lower"},
}

// perLayer is what a --trace 1 run reports, on every workload; a metric
// whose layer the workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Per-class latency under the closed loop (registry detached).
	{"point_p50_ms", "ms", "lower"},
	{"point_p95_ms", "ms", "lower"},
	{"agg_p50_ms", "ms", "lower"},
	{"agg_p95_ms", "ms", "lower"},
	{"full_p50_ms", "ms", "lower"},
	{"full_p95_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p95_ms", "ms", "lower"},

	{"server.self_us", "us", "lower"},
	{"server.json_encode_us", "us", "lower"},
	{"server.json_decode_us", "us", "lower"},
	{"server.req_bytes", "B", "lower"},
	{"server.resp_bytes", "B", "lower"},
	{"server.rejects_429", "count", "lower"},
	{"server.point_p99_ms", "ms", "lower"},
	{"server.agg_p99_ms", "ms", "lower"},
	{"server.write_p99_ms", "ms", "lower"},

	{"engine.self_us", "us", "lower"},
	{"shard.shards_scanned_per_op", "count", "lower"},
	{"shard.shards_pruned_pct", "%", "higher"},

	{"exec.ns_per_row", "ns", "lower"},
	{"exec.blocks_read_per_op", "count", "lower"},
	{"exec.blocks_pruned_pct", "%", "higher"},
	{"exec.partial_decodes_per_op", "count", "lower"},
	{"exec.batch_blocks_pct", "%", "higher"},
	{"exec.rows_examined_per_row_returned", "ratio", "lower"},

	{"blockstore.snapshot_us", "us", "lower"},
	{"blockstore.cache_hit_pct", "%", "higher"},

	{"core.decode_phis_ns_per_tuple", "ns", "lower"},
	{"core.decode_tuples_ns_per_tuple", "ns", "lower"},
	{"core.decode_span_us", "us", "lower"},
	{"core.decode_mb_per_s", "MB/s", "higher"},
	{"core.encode_ns_per_tuple", "ns", "lower"},
	{"core.tuples_per_block", "count", "higher"},
	{"core.stream_bytes_per_tuple", "B", "lower"},

	{"buffer.get_hit_ns", "ns", "lower"},
	{"buffer.get_miss_us", "us", "lower"},
	{"buffer.hit_pct", "%", "higher"},
	{"buffer.evictions_per_op", "count", "lower"},

	{"storage.self_us", "us", "lower"},
	{"storage.read_page_us", "us", "lower"},
	{"backend.read_block_us", "us", "lower"},
	{"backend.write_block_us", "us", "lower"},
	{"storage.bytes_written_per_user_byte", "ratio", "lower"},
	{"storage.stored_after_churn", "ratio", "lower"},

	{"wal.append_commit_us", "us", "lower"},
	{"wal.fsyncs_per_write", "count", "lower"},
	{"wal.group_size_avg", "count", "higher"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.rotations", "count", "lower"},
	{"wal.replay_s", "s", "lower"},

	{"load.gen_s", "s", "lower"},
	{"load.bulkload_s", "s", "lower"},
	{"load.tuples_per_s", "1/s", "higher"},
	{"load.reopen_s", "s", "lower"},

	{"process.cpu_s_per_kop", "s", "lower"},
	{"process.alloc_kb_per_op", "kB", "lower"},
	{"process.heap_peak_mb", "MB", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},

	{"obs.overhead_pct", "%", "lower"},

	// How well the staircase itself held up on this run.
	{"trace.http_us", "us", "lower"},
	{"trace.requests", "count", "higher"},
	{"trace.monotone_pct", "%", "higher"},
	{"trace.self_sum_gap_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and refuses a name the tables do not
// know, so a typo cannot silently drop a metric from the contract line.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.defs {
		if d.name == name {
			ms.values[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the metric table")
}

// complete fills every metric not set with 0: the layer was not exercised.
func (ms *metricSet) complete() map[string]metric {
	for _, d := range ms.defs {
		if _, ok := ms.values[d.name]; !ok {
			ms.values[d.name] = metric{Unit: d.unit}
		}
	}
	return ms.values
}
