package metrics

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type header value for the exposition format
// WriteTo produces.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo renders every registered family in the Prometheus text
// exposition format (version 0.0.4): a HELP and TYPE comment per family
// followed by its samples, families in registration order, children in
// sorted label order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	cols := make([]collector, len(r.cols))
	copy(cols, r.cols)
	r.mu.RUnlock()

	bw := bufio.NewWriter(w)
	var n int64
	wr := func(s string) error {
		m, err := bw.WriteString(s)
		n += int64(m)
		return err
	}
	for _, c := range cols {
		if err := wr("# HELP " + c.d.name + " " + escapeHelp(c.d.help) + "\n"); err != nil {
			return n, err
		}
		if err := wr("# TYPE " + c.d.name + " " + c.d.typ + "\n"); err != nil {
			return n, err
		}
		for _, s := range c.samples() {
			if err := wr(s.String() + "\n"); err != nil {
				return n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// Sample is one exposition line: a metric name, an optional label set and
// a value. The parser returns them and collectors produce them.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// String renders the sample as an exposition line (without newline).
func (s Sample) String() string {
	return s.Name + labelString(s.Labels) + " " + formatFloat(s.Value)
}

// labelString renders a label set as {k="v",...} with keys sorted, or ""
// when empty.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a value the way Prometheus clients do: integers
// without a decimal point, +Inf/-Inf/NaN spelled out, shortest otherwise.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.Signbit(v):
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
