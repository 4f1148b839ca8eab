package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/table"
)

// TestDifferentialEngines is the acceptance proof for the Engine seam: a
// single-file table and a 4-shard database behind identical servers must
// answer the same HTTP workload with byte-for-byte identical bodies —
// same rows in global φ order, same counts, same truncation, same status
// codes, same error envelopes. Stats stay off (the default) because block
// accounting legitimately differs between layouts; everything else may
// not.
func TestDifferentialEngines(t *testing.T) {
	single := loadedTable(t, 0)
	db, err := shard.Create(testSchema(t), shard.Config{
		Shards:  4,
		Options: []table.Option{table.WithPageSize(512)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	engines := []struct {
		name string
		eng  Engine
	}{
		{"table", single},
		{"shard", db},
	}
	servers := make([]*httptest.Server, len(engines))
	for i, e := range engines {
		s := New(Config{Engine: e.eng})
		servers[i] = httptest.NewServer(s.Handler())
		defer servers[i].Close()
	}

	// One deterministic workload: seed batch, point mutations (some
	// deletes hit, some miss), then the full query battery, then more
	// mutations and the battery again.
	var workload []struct{ path, body string }
	add := func(path, body string) {
		workload = append(workload, struct{ path, body string }{path, body})
	}

	var seed []string
	for i := 0; i < 900; i++ {
		seed = append(seed, fmt.Sprintf("[%d,%d,%d,%d]", (i*7)%64, i%16, (i*13)%64, i%4096))
	}
	add("/v1/mutate", `{"op":"batch","tuples":[`+strings.Join(seed, ",")+`]}`)
	for i := 0; i < 40; i++ {
		add("/v1/mutate", fmt.Sprintf(`{"op":"insert","tuple":[%d,%d,%d,%d]}`,
			(i*11)%64, (i*3)%16, (i*5)%64, 4000+i))
	}
	for i := 0; i < 60; i++ {
		// Every other delete targets a tuple that exists; the rest miss.
		add("/v1/mutate", fmt.Sprintf(`{"op":"delete","tuple":[%d,%d,%d,%d]}`,
			(i*7)%64, i%16, (i*13)%64, i%4096))
	}

	battery := func() {
		for _, q := range []string{
			`{"op":"count","attr":0,"lo":0,"hi":63}`,
			`{"op":"count","attr":0,"lo":10,"hi":20}`,
			`{"op":"count","attr":1,"lo":3,"hi":3}`,
			`{"op":"select","attr":0,"lo":5,"hi":9}`,
			`{"op":"select","attr":2,"lo":0,"hi":31,"limit":25}`,
			`{"op":"aggregate","attr":0,"lo":0,"hi":40,"agg_attr":3}`,
			`{"op":"aggregate","attr":1,"lo":0,"hi":7,"agg_attr":2}`,
			`{"op":"groupby","attr":0,"lo":0,"hi":63,"group_attr":1,"agg_attr":3}`,
			`{"op":"scan","limit":100}`,
			`{"op":"scan"}`,
			// Error paths must diverge identically too.
			`{"op":"count","attr":1,"hi":99}`,
			`{"op":"nope"}`,
		} {
			add("/v1/query", q)
		}
	}
	battery()
	add("/v1/mutate", `{"op":"batch","tuples":[[0,0,0,0],[63,15,63,4095]]}`)
	add("/v1/mutate", `{"op":"delete","tuple":[0,0,0,0]}`)
	battery()

	for step, w := range workload {
		var codes [2]int
		var bodies [2][]byte
		for i, ts := range servers {
			codes[i], bodies[i], _ = postJSON(t, ts.URL+w.path, w.body)
		}
		if codes[0] != codes[1] {
			t.Fatalf("step %d %s %s: status %d vs %d", step, w.path, w.body, codes[0], codes[1])
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("step %d %s %s:\n table: %s\n shard: %s", step, w.path, w.body, bodies[0], bodies[1])
		}
	}

	// Both engines end clean and agree on size.
	if single.Len() != db.Len() {
		t.Fatalf("final Len %d vs %d", single.Len(), db.Len())
	}
	for _, e := range engines {
		if err := e.eng.Check(); err != nil {
			t.Fatalf("%s: post-workload Check: %v", e.name, err)
		}
		if p, sn := e.eng.PinnedFrames(), e.eng.LiveSnapshots(); p != 0 || sn != 0 {
			t.Fatalf("%s: leaked %d pins, %d snapshots", e.name, p, sn)
		}
	}
}

// TestEngineSeamCompileTime double-checks the interface assertions stay
// meaningful at runtime: both engine kinds answer the cheap metadata
// calls through the seam.
func TestEngineSeamCompileTime(t *testing.T) {
	var engines []Engine
	engines = append(engines, loadedTable(t, 10))
	db, err := shard.Create(testSchema(t), shard.Config{Shards: 2,
		Options: []table.Option{table.WithPageSize(512)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	engines = append(engines, db)
	for _, e := range engines {
		if e.Schema().NumAttrs() != 4 {
			t.Fatalf("schema through seam: %v", e.Schema())
		}
		if e.Len() < 0 || e.NumBlocks() < 0 {
			t.Fatal("negative metadata through seam")
		}
	}
}
