package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// layerOf maps a span name to the layer whose time it is: the part
// before the dot, except that the round trip is the server's.
func layerOf(name string) string {
	if name == "http" {
		return "server"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// covered is the length of the union of the intervals: what a set of
// child spans, some of them concurrent (a scatter reads its shards in
// parallel), covers of the span that contains them.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// selfTimes splits one request's http span among the layers: each layer
// gets what its spans cover, and the span that contains them keeps the
// rest. The parts add up to exactly the http span. fits reports whether
// every step fitted into the step that contains it, which only the decode
// replay, being a second execution, can fail to.
func selfTimes(spans []span) (self map[string]int64, fits bool) {
	var http, engine, core int64
	ivs := map[string][][2]int64{}
	for _, sp := range spans {
		switch layer := layerOf(sp.Name); layer {
		case "server":
			http += sp.dur()
		case "engine":
			engine += sp.dur()
		case "core":
			core += sp.dur()
		default:
			ivs[layer] = append(ivs[layer], [2]int64{sp.Start, sp.End})
		}
	}
	self = map[string]int64{"server": http - engine, "core": core}
	rest := engine - core
	for layer, iv := range ivs {
		self[layer] = covered(iv)
		rest -= self[layer]
	}
	self["engine"] = rest
	return self, engine <= http && rest >= 0
}

// stairSummary condenses the replayed requests of one class.
type stairSummary struct {
	Requests int `json:"requests"`
	// HTTPUs is the median http span.
	HTTPUs float64 `json:"http_us"`
	// SharePct is, per layer, the median over the requests of the layer's
	// share of the request's http span (within a request the shares add up
	// to exactly 100); SelfUs is that share of the median http span. A
	// class's requests differ in size by up to a factor of five, so the
	// median of a layer's times and the median http span would come from
	// different requests; shares do not depend on the size.
	SharePct map[string]float64 `json:"share_pct"`
	SelfUs   map[string]float64 `json:"self_us"`
	// SpanUs is the median per span name of a request's spans of that
	// name, summed.
	SpanUs map[string]float64 `json:"span_us"`
	// MonotonePct is the share of requests in which every step fitted
	// into the step that contains it; SelfSumGapPct how far the layers'
	// median shares are from adding up to 100.
	MonotonePct   float64 `json:"monotone_pct"`
	SelfSumGapPct float64 `json:"self_sum_gap_pct"`
}

// spansByRequest groups the recorded spans by replayed request.
func (sc *staircase) spansByRequest() [][]span {
	byReq := make([][]span, len(sc.reqs))
	for _, sp := range sc.in.tr.spans {
		byReq[sp.Request] = append(byReq[sp.Request], sp)
	}
	return byReq
}

func (sc *staircase) summarize(cls class) stairSummary {
	share := map[string][]float64{}
	dur := map[string][]float64{}
	sum := stairSummary{SharePct: map[string]float64{}, SelfUs: map[string]float64{}, SpanUs: map[string]float64{}}
	monotone := 0
	for r, spans := range sc.spansByRequest() {
		if sc.reqs[r].class != cls || len(spans) == 0 {
			continue
		}
		sum.Requests++
		selfNs, fits := selfTimes(spans)
		if fits {
			monotone++
		}
		durNs := map[string]int64{}
		for _, sp := range spans {
			durNs[sp.Name] += sp.dur()
		}
		for l, ns := range selfNs {
			share[l] = append(share[l], pct(float64(ns), float64(durNs["http"])))
		}
		for name, ns := range durNs {
			dur[name] = append(dur[name], float64(ns)/1e3)
		}
	}
	if sum.Requests == 0 {
		return sum
	}
	// A layer or span absent from some requests (a cached read does no
	// file I/O) took no time in them.
	median := func(vs []float64) float64 {
		for len(vs) < sum.Requests {
			vs = append(vs, 0)
		}
		return medianFloat(vs)
	}
	for name, vs := range dur {
		sum.SpanUs[name] = median(vs)
	}
	sum.HTTPUs = sum.SpanUs["http"]
	total := 0.0
	for layer, vs := range share {
		sum.SharePct[layer] = median(vs)
		sum.SelfUs[layer] = sum.SharePct[layer] / 100 * sum.HTTPUs
		total += sum.SharePct[layer]
	}
	sum.MonotonePct = pct(float64(monotone), float64(sum.Requests))
	sum.SelfSumGapPct = math.Abs(total - 100)
	return sum
}

// pct is 100*part/whole, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// per is total/n, 0 when n is 0.
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// stairMetrics fills the per-layer metrics the staircase yields: self
// times from the primary class's summary, counts from the engine's wire
// stats and the decode replay over every replayed read.
func (sc *staircase) stairMetrics(ms *metricSet, primary stairSummary) {
	for layer, name := range map[string]string{
		"server": "server.self_us", "engine": "engine.self_us", "core": "core.decode_span_us",
		"storage": "storage.self_us", "wal": "wal.append_commit_us",
	} {
		ms.set(name, primary.SelfUs[layer])
	}
	ms.set("trace.http_us", primary.HTTPUs)
	ms.set("trace.requests", float64(len(sc.reqs)))
	ms.set("trace.monotone_pct", primary.MonotonePct)
	ms.set("trace.self_sum_gap_pct", primary.SelfSumGapPct)

	byReq := sc.spansByRequest()
	var reads, blocksRead, cacheHits, pruned, partial, batch, rows, matches, compute float64
	var jsonEnc, jsonDec, reqBytes, respBytes []float64
	for r, rec := range sc.reqs {
		if rec.class == sc.in.def.primary {
			jsonEnc = append(jsonEnc, float64(rec.JSONEncNs)/1e3)
			jsonDec = append(jsonDec, float64(rec.JSONDecNs)/1e3)
			reqBytes = append(reqBytes, float64(rec.ReqBytes))
			respBytes = append(respBytes, float64(rec.RespBytes))
		}
		if rec.Wire == nil {
			continue
		}
		reads++
		blocksRead += float64(rec.Wire.BlocksRead)
		cacheHits += float64(rec.Wire.CacheHits)
		pruned += float64(rec.Wire.BlocksPruned)
		partial += float64(rec.Wire.PartialDecodes)
		batch += float64(rec.Wire.BatchBlocks)
		rows += float64(rec.Rows)
		matches += float64(rec.Matches)
		// What the Engine call spent computing: its span less the file
		// operations inside it.
		self, _ := selfTimes(byReq[r])
		compute += float64(self["engine"] + self["core"])
	}
	ms.set("server.json_encode_us", medianFloat(jsonEnc))
	ms.set("server.json_decode_us", medianFloat(jsonDec))
	ms.set("server.req_bytes", medianFloat(reqBytes))
	ms.set("server.resp_bytes", medianFloat(respBytes))
	ms.set("exec.blocks_read_per_op", per(blocksRead+cacheHits, reads))
	ms.set("exec.blocks_pruned_pct", pct(pruned, pruned+blocksRead+cacheHits))
	ms.set("exec.partial_decodes_per_op", per(partial, reads))
	ms.set("exec.batch_blocks_pct", pct(batch, blocksRead+cacheHits))
	ms.set("blockstore.cache_hit_pct", pct(cacheHits, blocksRead+cacheHits))
	ms.set("exec.ns_per_row", per(compute, rows))
	ms.set("exec.rows_examined_per_row_returned", per(rows, matches))
}

// counterDeltas turns two registry snapshots into per-name increments.
func counterDeltas(before, after obs.Snapshot) map[string]float64 {
	d := make(map[string]float64, len(after.Counters))
	for _, c := range after.Counters {
		d[c.Name] = float64(c.Value)
	}
	for _, c := range before.Counters {
		d[c.Name] -= float64(c.Value)
	}
	return d
}
