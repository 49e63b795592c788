package transport

import (
	"encoding/json"
	"net/http"
	"strconv"
	"unsafe"

	"repro/internal/stream"
)

// The JSON report wire has one grammar: the shape json.Marshal and
// json.Encoder write for IngestRequest and ReportRequest,
//
//	ingest: {"reports":[report,…]}
//	report: {"user":"…","group":N,"values":[x,…]}
//
// with JSON whitespace between any two tokens, the keys in exactly this
// order and case, each once, at least one report and one value, user ids
// of printable ASCII without escapes, group an integer literal, and
// nothing but whitespace after the value. The scanner below decodes such
// a body in one pass over the pooled body buffer without allocating: user
// ids alias the buffer (valid for the request, like wirebin's ids — the
// per-user table copies what it keeps) and values land in one pooled
// arena. Every number is first matched against the strict JSON number
// grammar and then parsed with strconv, exactly as encoding/json parses
// it. Any other body — escapes, non-ASCII, null, other key orders or
// cases, unknown or duplicate keys, empty arrays, an out-of-range number
// — is declined and goes to json.Unmarshal on the same bytes, so every
// body decodes to the entries json.Unmarshal gives and fails with its
// error (FuzzIngestJSON holds the two paths to that).

// decodeIngestJSON reads an ingest body and decodes its reports. The
// entries are valid until fc goes back to the pool.
func (fc *ingestCodec) decodeIngestJSON(r *http.Request) ([]stream.BatchEntry, error) {
	body, err := fc.readBody(r.Body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	if entries, ok := fc.scanIngest(body); ok {
		return entries, nil
	}
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	entries := make([]stream.BatchEntry, len(req.Reports))
	for i, e := range req.Reports {
		entries[i] = stream.BatchEntry{User: e.User, Group: e.Group, Values: e.Values}
	}
	return entries, nil
}

// decodeReportJSON reads a single-report body and decodes it, valid until
// fc goes back to the pool.
func (fc *ingestCodec) decodeReportJSON(r *http.Request) (stream.BatchEntry, error) {
	body, err := fc.readBody(r.Body, r.ContentLength)
	if err != nil {
		return stream.BatchEntry{}, err
	}
	if e, ok := fc.scanReport(body); ok {
		return e, nil
	}
	var req ReportRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return stream.BatchEntry{}, err
	}
	return stream.BatchEntry{User: req.User, Group: req.Group, Values: req.Values}, nil
}

// scanIngest decodes a canonical ingest body; ok is false when body is
// outside the grammar.
func (fc *ingestCodec) scanIngest(body []byte) (entries []stream.BatchEntry, ok bool) {
	s := jsonScanner{p: body}
	entries, values := fc.entries[:0], fc.values[:0]
	s.expect('{')
	s.key(`"reports"`)
	s.expect('[')
	for !s.bad {
		var e stream.BatchEntry
		e, values = s.report(values)
		entries = append(entries, e)
		if !s.more(']') {
			break
		}
	}
	s.expect('}')
	s.end()
	fc.entries, fc.values = entries, values
	if s.bad {
		return nil, false
	}
	// Entries scanned before the arena last grew still point into an array
	// it outgrew. Lay every entry's values, consecutive in scan order, over
	// the final one, so a pooled codec holds one arena and nothing more.
	off := 0
	for i := range entries {
		n := len(entries[i].Values)
		entries[i].Values = values[off : off+n : off+n]
		off += n
	}
	return entries, true
}

// scanReport decodes a canonical single-report body; ok is false when body
// is outside the grammar.
func (fc *ingestCodec) scanReport(body []byte) (e stream.BatchEntry, ok bool) {
	s := jsonScanner{p: body}
	e, fc.values = s.report(fc.values[:0])
	s.end()
	return e, !s.bad
}

// jsonScanner walks one body. The first token outside the grammar sets
// bad; every later step may go on reading, but bad stays set.
type jsonScanner struct {
	p   []byte
	i   int
	bad bool
}

// report scans one report object, appending its values to vals; the
// entry's Values is the tail it appended.
func (s *jsonScanner) report(vals []float64) (stream.BatchEntry, []float64) {
	s.expect('{')
	s.key(`"user"`)
	user := s.str()
	s.expect(',')
	s.key(`"group"`)
	group := s.integer()
	s.expect(',')
	s.key(`"values"`)
	s.expect('[')
	lo := len(vals)
	for !s.bad {
		vals = append(vals, s.float())
		if !s.more(']') {
			break
		}
	}
	s.expect('}')
	return stream.BatchEntry{User: user, Group: group, Values: vals[lo:len(vals):len(vals)]}, vals
}

// peek skips JSON whitespace and returns the next byte, 0 at the end.
func (s *jsonScanner) peek() byte {
	for ; s.i < len(s.p); s.i++ {
		switch c := s.p[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the structural byte c.
func (s *jsonScanner) expect(c byte) {
	if s.peek() == c {
		s.i++
	} else {
		s.bad = true
	}
}

// key consumes the quoted key name and its colon.
func (s *jsonScanner) key(name string) {
	s.peek()
	if len(s.p)-s.i >= len(name) && string(s.p[s.i:s.i+len(name)]) == name {
		s.i += len(name)
		s.expect(':')
	} else {
		s.bad = true
	}
}

// more consumes the separator after an array element: true after a comma,
// false after the closing byte or on anything else.
func (s *jsonScanner) more(closing byte) bool {
	switch s.peek() {
	case ',':
		s.i++
		return true
	case closing:
		s.i++
	default:
		s.bad = true
	}
	return false
}

// end requires nothing but whitespace after the value.
func (s *jsonScanner) end() {
	if s.peek(); s.i != len(s.p) {
		s.bad = true
	}
}

// str consumes a string of printable ASCII without escapes and returns it
// laid over the body buffer.
func (s *jsonScanner) str() string {
	if s.peek() == '"' {
		lo := s.i + 1
		for j := lo; j < len(s.p) && s.p[j] != '\\' && 0x20 <= s.p[j] && s.p[j] <= 0x7e; j++ {
			if s.p[j] == '"' {
				s.i = j + 1
				return unsafe.String(&s.p[lo], j-lo) // p[j] exists, so &p[lo] does
			}
		}
	}
	s.bad = true
	return ""
}

// number consumes a literal of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it laid over
// the body buffer; "" when there is none.
func (s *jsonScanner) number() string {
	s.peek()
	p, lo, i, ok := s.p, s.i, s.i, true
	if i < len(p) && p[i] == '-' {
		i++
	}
	if i < len(p) && p[i] == '0' {
		i++
	} else {
		i, ok = digits(p, i)
	}
	if ok && i < len(p) && p[i] == '.' {
		i, ok = digits(p, i+1)
	}
	if ok && i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		if i++; i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		i, ok = digits(p, i)
	}
	if !ok {
		s.bad = true
		return ""
	}
	s.i = i
	return unsafe.String(&p[lo], i-lo)
}

// digits skips the digits at p[i:] and reports whether there was one.
func digits(p []byte, i int) (int, bool) {
	j := i
	for j < len(p) && '0' <= p[j] && p[j] <= '9' {
		j++
	}
	return j, j > i
}

// integer consumes a number that encoding/json stores into an int: an
// integer literal within int's range.
func (s *jsonScanner) integer() int {
	n, err := strconv.Atoi(s.number())
	if err != nil {
		s.bad = true
	}
	return n
}

// float consumes a number that encoding/json stores into a float64: any
// literal strconv.ParseFloat takes without a range error.
func (s *jsonScanner) float() float64 {
	v, err := strconv.ParseFloat(s.number(), 64)
	if err != nil {
		s.bad = true
	}
	return v
}
