package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/table"
)

// pointSelectBytes is the heap bytes one point select allocates through
// the query handler, steady state: a flat-schema AVQ table on 8 KiB pages,
// 100 matching rows in one or two blocks, pools warm.
func pointSelectBytes(t *testing.T) float64 {
	tab, err := table.Create(testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	tuples := make([]relation.Tuple, 64*100)
	for i := range tuples {
		tuples[i] = relation.Tuple{uint64(i % 64), uint64(i % 16), uint64(i / 64 % 64), uint64(i % 4096)}
	}
	if err := tab.BulkLoadContext(context.Background(), tuples); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Engine: tab}).Handler()
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"op":"select","attr":0,"lo":37,"hi":37}`)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count":100,`) {
			t.Fatalf("point select: %d %s", rec.Code, rec.Body.String())
		}
	}
	for range 20 {
		run()
	}
	const ops = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range ops {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / ops
}

// parentPointSelectBytes is pointSelectBytes measured before point selects
// took one φ walk per block and responses were append-encoded (Go 1.24,
// linux/amd64): the span's arena slabs, the per-query stream buffer and
// the reflective encoder's buffers.
const parentPointSelectBytes = 107_500

// TestPointSelectAllocBytes holds a steady-state point select to under
// half the bytes per request it allocated before.
func TestPointSelectAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race, so pooled buffers are re-grown")
	}
	got := pointSelectBytes(t)
	t.Logf("%.0f B/op (was %d)", got, parentPointSelectBytes)
	if got > parentPointSelectBytes/2 {
		t.Errorf("point select allocates %.0f B/op, want under %d", got, parentPointSelectBytes/2)
	}
}
