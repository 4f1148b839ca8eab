package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/relation"
)

// encoderBytes is what json.NewEncoder(w).Encode writes for v: the
// reference the append encoder must match byte for byte.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkWire holds v's append encoding to encoding/json's.
func checkWire(t *testing.T, v wireBody) {
	t.Helper()
	if got, want := v.appendWire(nil), encoderBytes(t, v); !bytes.Equal(got, want) {
		t.Fatalf("append encoding differs from encoding/json:\n got %q\nwant %q", got, want)
	}
}

// wireResponses are the response shapes the append encoder must get
// right: every optional field present and absent, nil against empty rows
// and a nil row, the largest values, and names needing each escape.
func wireResponses() []wireBody {
	maxStats := &StatsJSON{Strategy: "clustered", BlocksRead: math.MaxInt, CacheHits: -1, BlocksPruned: 3, PartialDecodes: 1, Matches: 7, BatchBlocks: 2, SlabRows: math.MaxInt}
	return []wireBody{
		&QueryResponse{Op: OpSelect},
		&QueryResponse{Op: OpSelect, Rows: [][]uint64{}},
		&QueryResponse{Op: OpSelect, Count: 3, Rows: [][]uint64{{1, 2}, nil, {}, {math.MaxUint64, 0}}, Truncated: true},
		&QueryResponse{Op: OpCount, Count: math.MinInt, Stats: &StatsJSON{Strategy: "full-scan"}},
		&QueryResponse{Op: OpAggregate, Count: 7, Agg: &AggregateJSON{Count: 7, Sum: math.MaxUint64, Max: 40}, Stats: maxStats},
		&QueryResponse{Op: OpGroupBy, Groups: []GroupJSON{}},
		&QueryResponse{Op: OpGroupBy, Count: 4, Groups: []GroupJSON{{Value: 1, Agg: AggregateJSON{Count: 3, Sum: 10, Min: 1, Max: 6}}, {Value: math.MaxUint64}}},
		&QueryResponse{Op: "<&>\"\\\b\f\n\r\t\x00\x1f\x7f \u00e9 \u2028\u2029 \xff\xc3 end"},
		&MutateResponse{Op: OpInsert, Applied: 1, Len: 41},
		&MutateResponse{Op: OpDelete, Found: true, Applied: 1, Len: math.MaxInt},
		&MutateResponse{Op: "", Applied: -1},
	}
}

// TestResponseWireMatchesEncoder: the append encoder writes encoding/json's
// bytes for the table of response shapes, and for the committed golden
// responses it writes the golden bytes plus Encode's newline.
func TestResponseWireMatchesEncoder(t *testing.T) {
	for _, v := range wireResponses() {
		checkWire(t, v)
	}
	raw, err := os.ReadFile("testdata/wire_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Kind string          `json:"kind"`
		JSON json.RawMessage `json:"json"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tc := range cases {
		var v wireBody
		switch tc.Kind {
		case "query_response":
			v = &QueryResponse{}
		case "mutate_response":
			v = &MutateResponse{}
		default:
			continue
		}
		if err := decodeStrict(bytes.NewReader(tc.JSON), v); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, tc.JSON); err != nil {
			t.Fatal(err)
		}
		if got := v.appendWire(nil); !bytes.Equal(got, append(want.Bytes(), '\n')) {
			t.Fatalf("golden %s: got %q, want %q", tc.Kind, got, want.Bytes())
		}
		n++
	}
	if n == 0 {
		t.Fatal("no golden responses")
	}
}

// TestRequestBodyCap: a body one byte over maxRequestBytes is refused with
// 413 before it is decoded; a body of exactly the cap is read.
func TestRequestBodyCap(t *testing.T) {
	h := New(Config{Engine: loadedTable(t, 100)}).Handler()
	body := func(n int) string {
		const q = `{"op":"count","attr":0,"lo":0,"hi":3}`
		return q[:len(q)-1] + strings.Repeat(" ", n-len(q)) + "}"
	}
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/query", body(maxRequestBytes), http.StatusOK},
		{"/v1/query", body(maxRequestBytes + 1), http.StatusRequestEntityTooLarge},
		{"/v1/mutate", `{"op":"insert","tuple":[1,1,1,1]` + strings.Repeat(" ", maxRequestBytes) + "}", http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Fatalf("%s, %d-byte body: code %d (%s), want %d", tc.path, len(tc.body), rec.Code, rec.Body.String(), tc.want)
		}
	}
	if err := decodeStrict(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body(65))), 64), &QueryRequest{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("decodeStrict over the cap: %v, want ErrTooLarge", err)
	}
}

// FuzzServerWire holds the server's two wire directions:
//
//   - an arbitrary body through decodeStrict and Validate never panics
//     and fails only with ErrBadRequest or relation.ErrDomainRange;
//   - an arbitrary response — decoded leniently from the same body, with
//     the fuzzed name as its op and strategy — append-encodes to exactly
//     encoding/json's bytes.
func FuzzServerWire(f *testing.F) {
	for _, v := range wireResponses() {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, "select")
	}
	f.Add([]byte(`{"op":"select","attr":0,"lo":3,"hi":3,"limit":2,"stats":true,"timeout_ms":5}`), "<\u00e9>")
	f.Add([]byte(`{"op":"batch","tuples":[[1,2,3,4],[5,6,7,8]]}`), "\xff\u2028")
	f.Add([]byte(`{"op":"select","count":1,"rows":[null,[18446744073709551615]],"stats":{"strategy":"x","batch_blocks":1}}`), "\x00")
	f.Add([]byte(`{"op":"insert","tuple":[99,0,0,0]}`), "")
	schema := relation.MustSchema(
		relation.Domain{Name: "dept", Size: 64},
		relation.Domain{Name: "job", Size: 16},
		relation.Domain{Name: "years", Size: 64},
		relation.Domain{Name: "empno", Size: 4096},
	)
	f.Fuzz(func(t *testing.T, body []byte, name string) {
		requestOK := func(err error) {
			if err != nil && !errors.Is(err, ErrBadRequest) && !errors.Is(err, relation.ErrDomainRange) {
				t.Fatalf("body %q: error %v is neither ErrBadRequest nor ErrDomainRange", body, err)
			}
		}
		var q QueryRequest
		if err := decodeStrict(bytes.NewReader(body), &q); err != nil {
			requestOK(err)
		} else {
			requestOK(q.Validate(schema))
		}
		var m MutateRequest
		if err := decodeStrict(bytes.NewReader(body), &m); err != nil {
			requestOK(err)
		} else {
			requestOK(m.Validate(schema))
		}

		qr := QueryResponse{Op: name}
		if json.Unmarshal(body, &qr) == nil {
			qr.Op = name
			if qr.Stats != nil {
				qr.Stats.Strategy = name
			}
		}
		checkWire(t, &qr)
		mr := MutateResponse{Op: name}
		if json.Unmarshal(body, &mr) == nil {
			mr.Op = name
		}
		checkWire(t, &mr)
	})
}
