package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The response writer. A query or mutate response is appended field by
// field into a pooled buffer and sent with one Write under an exact
// Content-Length: no reflection, and no allocation once the pool is warm.
// The bytes are exactly those json.NewEncoder(w).Encode writes for the
// same value, trailing newline included (FuzzServerWire holds the two
// together), so QueryResponse and MutateResponse, with their tags, stay
// the wire's definition that clients decode into.

// wireBody is a response that appends its own encoding.
type wireBody interface {
	appendWire(b []byte) []byte
}

// respPool recycles response buffers across requests.
var respPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledResp caps the buffers respPool keeps: one large scan must not
// pin its buffer for the life of the process.
const maxPooledResp = 1 << 20

// writeBody sends v as a 200 JSON response in one Write.
func writeBody(w http.ResponseWriter, v wireBody) {
	bp := respPool.Get().(*[]byte)
	b := v.appendWire((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
	if cap(b) <= maxPooledResp {
		*bp = b
		respPool.Put(bp)
	}
}

// appendWire appends the response as Encode writes it.
func (r *QueryResponse) appendWire(b []byte) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, r.Op)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if len(r.Rows) > 0 {
		b = append(b, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendUints(b, row)
		}
		b = append(b, ']')
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if r.Agg != nil {
		b = append(b, `,"agg":`...)
		b = r.Agg.appendJSON(b)
	}
	if len(r.Groups) > 0 {
		b = append(b, `,"groups":[`...)
		for i, g := range r.Groups {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"value":`...)
			b = strconv.AppendUint(b, g.Value, 10)
			b = append(b, `,"agg":`...)
			b = g.Agg.appendJSON(b)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Stats != nil {
		b = append(b, `,"stats":`...)
		b = r.Stats.appendJSON(b)
	}
	return append(b, "}\n"...)
}

// appendWire appends the response as Encode writes it.
func (r *MutateResponse) appendWire(b []byte) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, r.Op)
	if r.Found {
		b = append(b, `,"found":true`...)
	}
	b = append(b, `,"applied":`...)
	b = strconv.AppendInt(b, int64(r.Applied), 10)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(r.Len), 10)
	return append(b, "}\n"...)
}

func (a *AggregateJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(a.Count), 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendUint(b, a.Sum, 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendUint(b, a.Min, 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendUint(b, a.Max, 10)
	return append(b, '}')
}

func (s *StatsJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"strategy":`...)
	b = appendString(b, s.Strategy)
	b = append(b, `,"blocks_read":`...)
	b = strconv.AppendInt(b, int64(s.BlocksRead), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(s.CacheHits), 10)
	b = append(b, `,"blocks_pruned":`...)
	b = strconv.AppendInt(b, int64(s.BlocksPruned), 10)
	b = append(b, `,"partial_decodes":`...)
	b = strconv.AppendInt(b, int64(s.PartialDecodes), 10)
	b = append(b, `,"matches":`...)
	b = strconv.AppendInt(b, int64(s.Matches), 10)
	if s.BatchBlocks != 0 {
		b = append(b, `,"batch_blocks":`...)
		b = strconv.AppendInt(b, int64(s.BatchBlocks), 10)
	}
	if s.SlabRows != 0 {
		b = append(b, `,"slab_rows":`...)
		b = strconv.AppendInt(b, int64(s.SlabRows), 10)
	}
	return append(b, '}')
}

// appendUints appends a row: null for a nil slice, as encoding/json does.
func appendUints(b []byte, vs []uint64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		// Small digits, the common case of a generated relation, skip
		// strconv's general path.
		const digits = "0123456789"
		switch {
		case v < 10:
			b = append(b, digits[v])
		case v < 100:
			b = append(b, digits[v/10], digits[v%10])
		default:
			b = strconv.AppendUint(b, v, 10)
		}
	}
	return append(b, ']')
}

// appendString appends s as a quoted JSON string under encoding/json's
// default (HTML-escaping) rules: printable ASCII other than " \ < > & as
// is; the two-character escapes for " \ and \b \f \n \r \t; \u00XX for
// other control bytes and < > &; \ufffd for each invalid UTF-8 byte; and
// \u2028 / \u2029 for the two line separators JavaScript rejects.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(append(b, s[start:i]...), `\ufffd`...)
				i++
				start = i
				continue
			}
			if r == '\u2028' || r == '\u2029' {
				b = append(append(b, s[start:i]...), `\u202`...)
				b = append(b, hex[r&0xF])
				i += size
				start = i
				continue
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
