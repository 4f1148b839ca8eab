package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/table"
)

// TestRestartWalksMatchModel holds the partial decodes — which start at the
// nearest restart of each block's directory — to the test's own model of
// the relation: every codec × engine (a single table and a 4-shard
// database), on a flat schema and on one whose space exceeds 64 bits,
// answers point and range selects and counts on attribute 0 with exactly
// the model's tuples, after a bulk load and again after inserts and
// deletes have edited and split blocks (whose directories the write path
// rebuilt). The byte-RLE tables must answer some of them by partial
// decodes, so the restart walks are what the model checks.
func TestRestartWalksMatchModel(t *testing.T) {
	wide, err := relation.NewSchema(
		relation.Domain{Name: "dept", Size: 64},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
		relation.Domain{Name: "x", Size: 1 << 40},
		relation.Domain{Name: "y", Size: 1 << 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, flat := wide.FlatSpace(); flat {
		t.Fatal("the wide schema is flat")
	}
	for _, s := range []*relation.Schema{testSchema(t), wide} {
		tuple := func(i int) relation.Tuple {
			v := relation.Tuple{uint64(i % 64), uint64(i % 16), uint64((i * 13) % 64), uint64(i % 4096)}
			for j := 4; j < s.NumAttrs(); j++ {
				v = append(v, uint64(i)*7919%s.Domain(j).Size)
			}
			return v
		}
		for _, codec := range core.Codecs() {
			opts := []table.Option{table.WithCodec(codec), table.WithPageSize(2048)}
			tab, err := table.Create(s, opts...)
			if err != nil {
				t.Fatal(err)
			}
			db, err := shard.Create(s, shard.Config{Shards: 4, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []struct {
				name string
				eng  Engine
			}{{"table", tab}, {"shard", db}} {
				ts := httptest.NewServer(New(Config{Engine: e.eng}).Handler())
				name := fmt.Sprintf("%s/%v/%s", s, codec, e.name)
				var model []relation.Tuple // the relation, a bag
				var seed []string
				for i := range 3000 {
					model = append(model, tuple(i))
					seed = append(seed, tupleJSON(tuple(i)))
				}
				post(t, name, ts.URL+"/v1/mutate", `{"op":"batch","tuples":[`+strings.Join(seed, ",")+`]}`)
				partial := compareWithModel(t, name, ts.URL, model)
				for i := range 200 {
					ins, del := tuple(3000+i*37), tuple(i*11)
					post(t, name, ts.URL+"/v1/mutate", fmt.Sprintf(`{"op":"insert","tuple":%s}`, tupleJSON(ins)))
					model = append(model, ins)
					post(t, name, ts.URL+"/v1/mutate", fmt.Sprintf(`{"op":"delete","tuple":%s}`, tupleJSON(del)))
					if k := slices.IndexFunc(model, func(u relation.Tuple) bool { return slices.Equal(u, del) }); k >= 0 {
						model = slices.Delete(model, k, k+1)
					}
				}
				partial += compareWithModel(t, name, ts.URL, model)
				if partial == 0 && codec == core.CodecAVQ {
					t.Fatalf("%s: no select was answered by a partial decode", name)
				}
				ts.Close()
				if err := e.eng.Check(); err != nil {
					t.Fatalf("%s: Check: %v", name, err)
				}
			}
			tab.Close()
			db.Close()
		}
	}
}

// compareWithModel runs point and range selects and counts on attribute 0
// and requires the model's answers: the same bag of rows, and a limited
// select's rows drawn from it. It returns the partial decodes the selects
// reported.
func compareWithModel(t *testing.T, name, url string, model []relation.Tuple) (partial int) {
	t.Helper()
	var ranges [][2]uint64
	for v := range uint64(64) {
		ranges = append(ranges, [2]uint64{v, v})
	}
	ranges = append(ranges, [][2]uint64{{0, 5}, {3, 17}, {20, 40}, {60, 63}, {0, 63}}...)
	for _, r := range ranges {
		var want []string
		for _, u := range model {
			if u[0] >= r[0] && u[0] <= r[1] {
				want = append(want, tupleJSON(u))
			}
		}
		slices.Sort(want)
		q := fmt.Sprintf(`{"op":"select","attr":0,"lo":%d,"hi":%d,"stats":true}`, r[0], r[1])
		resp := query(t, name, url, q)
		got := rowsJSON(resp.Rows)
		if slices.Sort(got); resp.Count != len(want) || !slices.Equal(got, want) {
			t.Fatalf("%s %s: count %d, rows %v; the model has %d: %v", name, q, resp.Count, got, len(want), want)
		}
		if resp.Stats != nil {
			partial += resp.Stats.PartialDecodes
		}
		q = fmt.Sprintf(`{"op":"count","attr":0,"lo":%d,"hi":%d}`, r[0], r[1])
		if resp := query(t, name, url, q); resp.Count != len(want) {
			t.Fatalf("%s %s: count %d; the model has %d", name, q, resp.Count, len(want))
		}
		q = fmt.Sprintf(`{"op":"select","attr":0,"lo":%d,"hi":%d,"limit":7}`, r[0], r[1])
		resp = query(t, name, url, q)
		got = rowsJSON(resp.Rows)
		if resp.Count != len(want) || len(got) != min(7, len(want)) || resp.Truncated != (len(want) > 7) {
			t.Fatalf("%s %s: count %d, %d rows, truncated %v; the model has %d", name, q, resp.Count, len(got), resp.Truncated, len(want))
		}
		for _, row := range got {
			if _, found := slices.BinarySearch(want, row); !found {
				t.Fatalf("%s %s: row %s is not in the model", name, q, row)
			}
		}
	}
	return partial
}

// query sends one query and decodes its response.
func query(t *testing.T, name, url, body string) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if err := json.Unmarshal(post(t, name, url+"/v1/query", body), &resp); err != nil {
		t.Fatalf("%s %s: %v", name, body, err)
	}
	return resp
}

// tupleJSON is a tuple as the wire writes it.
func tupleJSON(u []uint64) string { return string(appendUints(nil, u)) }

// rowsJSON is each row as the wire writes it.
func rowsJSON(rows [][]uint64) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = tupleJSON(r)
	}
	return out
}

// post sends one request and requires a 200.
func post(t *testing.T, name, url, body string) []byte {
	t.Helper()
	code, out, _ := postJSON(t, url, body)
	if code != 200 {
		t.Fatalf("%s %s: status %d: %s", name, body, code, out)
	}
	return out
}
