package table

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// histBuckets is the number of equi-width buckets per attribute histogram.
const histBuckets = 64

// histogram is an equi-width value histogram over one attribute's domain.
// The table maintains one per attribute so the planner can estimate
// predicate selectivity from the data instead of assuming uniformity —
// which matters on the skewed distributions of the paper's Test 1/2
// workloads.
type histogram struct {
	counts []int
	domain uint64
	width  uint64 // values per bucket (last bucket may be short)
	total  int
}

func newHistogram(domain uint64) *histogram {
	n := histBuckets
	if domain < uint64(n) {
		n = int(domain)
	}
	width := (domain + uint64(n) - 1) / uint64(n)
	return &histogram{
		counts: make([]int, n),
		domain: domain,
		width:  width,
	}
}

// newHistograms returns an empty histogram per attribute of schema.
func newHistograms(schema *relation.Schema) []*histogram {
	hs := make([]*histogram, schema.NumAttrs())
	for i := range hs {
		hs[i] = newHistogram(schema.Domain(i).Size)
	}
	return hs
}

func (h *histogram) bucketOf(v uint64) int {
	b := int(v / h.width)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

func (h *histogram) add(v uint64) {
	h.counts[h.bucketOf(v)]++
	h.total++
}

// merge adds o's counts, a histogram over the same domain, into h.
func (h *histogram) merge(o *histogram) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.total += o.total
}

func (h *histogram) remove(v uint64) {
	b := h.bucketOf(v)
	if h.counts[b] > 0 {
		h.counts[b]--
		h.total--
	}
}

// estimate returns the estimated fraction of rows with lo <= v <= hi,
// assuming uniformity within buckets (the classic equi-width model).
func (h *histogram) estimate(lo, hi uint64) float64 {
	if h.total == 0 || lo > hi || lo >= h.domain {
		return 0
	}
	if hi >= h.domain {
		hi = h.domain - 1
	}
	est := 0.0
	bLo, bHi := h.bucketOf(lo), h.bucketOf(hi)
	for b := bLo; b <= bHi; b++ {
		start := uint64(b) * h.width
		end := start + h.width - 1
		if end >= h.domain {
			end = h.domain - 1
		}
		overlapLo, overlapHi := start, end
		if lo > overlapLo {
			overlapLo = lo
		}
		if hi < overlapHi {
			overlapHi = hi
		}
		if overlapLo > overlapHi {
			continue
		}
		frac := float64(overlapHi-overlapLo+1) / float64(end-start+1)
		est += frac * float64(h.counts[b])
	}
	return est / float64(h.total)
}

// histAdd / histRemove / histAddAll maintain the table's histograms.
func (t *Table) histAdd(tu relation.Tuple) {
	for i, h := range t.hist {
		h.add(tu[i])
	}
}

func (t *Table) histRemove(tu relation.Tuple) {
	for i, h := range t.hist {
		h.remove(tu[i])
	}
}

// HistogramContext computes an exact equi-width value histogram of one
// attribute by streaming the table through the executor — the measured
// counterpart of the planner's incrementally maintained estimate. It
// returns one count per bucket; the last bucket absorbs the domain
// remainder when the domain does not divide evenly.
func (t *Table) HistogramContext(ctx context.Context, attr, buckets int) ([]int, QueryStats, error) {
	if attr < 0 || attr >= t.schema.NumAttrs() {
		return nil, QueryStats{}, fmt.Errorf("table: attribute %d out of range", attr)
	}
	if buckets <= 0 {
		return nil, QueryStats{}, fmt.Errorf("table: histogram needs a positive bucket count")
	}
	domain := t.schema.Domain(attr).Size
	if uint64(buckets) > domain {
		buckets = int(domain)
	}
	width := (domain + uint64(buckets) - 1) / uint64(buckets)
	counts := make([]int, buckets)
	t.mu.RLock()
	r := t.planScan()
	t.mu.RUnlock()
	r.op = "histogram"
	if r.batch {
		// Bucket straight off the φ digits.
		w, _ := t.schema.FlatWeights()
		dig := core.NewDigitExtractor(w[attr], domain)
		stats, err := r.runBatchCtx(ctx, func(phis []uint64) bool {
			for _, phi := range phis {
				b := int(dig.Digit(phi) / width)
				if b >= buckets {
					b = buckets - 1
				}
				counts[b]++
			}
			return true
		})
		return counts, stats, err
	}
	// Bucketing reads one attribute per tuple and retains nothing.
	r.plan.Transient = true
	stats, err := r.runCtx(ctx, func(tu relation.Tuple) bool {
		b := int(tu[attr] / width)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
		return true
	})
	return counts, stats, err
}

// EstimateSelectivity returns the estimated fraction of rows a predicate
// admits, from the attribute's histogram.
func (t *Table) EstimateSelectivity(p Predicate) (float64, error) {
	if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
		return 0, fmt.Errorf("table: attribute %d out of range", p.Attr)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hist[p.Attr].estimate(p.Lo, p.Hi), nil
}

// Explain describes, without executing, the plan Select would choose for a
// conjunction: the driving predicate, its access path, the estimated
// selectivity, and the estimated blocks read.
func (t *Table) Explain(preds []Predicate) (string, error) {
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= t.schema.NumAttrs() {
			return "", fmt.Errorf("table: attribute %d out of range", p.Attr)
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	nBlocks := t.store.NumBlocks()
	var b strings.Builder
	if len(preds) == 0 {
		fmt.Fprintf(&b, "full scan: %d blocks\n", nBlocks)
		return b.String(), nil
	}
	driver := t.pickDriver(preds)
	p := preds[driver]
	sel := t.hist[p.Attr].estimate(p.Lo, p.Hi)
	strategy, estBlocks := t.planFor(p, sel)
	fmt.Fprintf(&b, "select: %s", p)
	for i, q := range preds {
		if i != driver {
			fmt.Fprintf(&b, " AND %s", q)
		}
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "driver: %s via %s path (est. selectivity %.1f%%, est. blocks %d of %d)\n",
		p, strategy, 100*sel, estBlocks, nBlocks)
	residuals := 0
	for i, q := range preds {
		if i == driver {
			continue
		}
		if residuals == 0 {
			fmt.Fprintf(&b, "residual filter:")
		}
		fmt.Fprintf(&b, " %s", q)
		residuals++
	}
	if residuals > 0 {
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// planFor predicts the strategy and block count for one driving predicate.
// The caller holds mu.
func (t *Table) planFor(p Predicate, sel float64) (Strategy, int) {
	nBlocks := t.store.NumBlocks()
	estRows := sel * float64(t.size)
	switch {
	case p.Attr == 0:
		// Clustered: the qualifying band is contiguous.
		est := int(sel*float64(nBlocks)) + 1
		if est > nBlocks {
			est = nBlocks
		}
		return StrategyClustered, est
	default:
		if _, ok := t.secondary[p.Attr]; ok {
			// Scattered rows: expected distinct blocks touched, capped by
			// both the row estimate and the block count.
			est := int(estRows) + 1
			if est > nBlocks {
				est = nBlocks
			}
			return StrategySecondary, est
		}
		return StrategyFullScan, nBlocks
	}
}
