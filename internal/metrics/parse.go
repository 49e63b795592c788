package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Scrape is a parsed exposition payload: the samples in document order
// plus the TYPE declared for each family. It is what the end-to-end
// scrape checks (daploadgen -scrape-metrics, cmd/metricscheck) consume.
type Scrape struct {
	Samples []Sample
	Types   map[string]string // family name -> counter|gauge|histogram|...
}

// Parse reads a Prometheus text exposition (version 0.0.4) payload. It
// is strict about the subset this package emits — a malformed line is an
// error, not a skip — so it doubles as a format validator.
func Parse(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string)}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	ln := 0
	for br.Scan() {
		ln++
		line := strings.TrimSpace(br.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if !nameRE.MatchString(fields[2]) {
					return nil, fmt.Errorf("metrics: line %d: bad TYPE name %q", ln, fields[2])
				}
				sc.Types[fields[2]] = strings.TrimSpace(strings.TrimPrefix(line, "# TYPE "+fields[2]))
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", ln, err)
		}
		sc.Samples = append(sc.Samples, s)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	// Metric name runs up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = rest[:end]
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		labels, remaining, err := parseLabels(rest[1:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = remaining
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; this package never emits one, so
	// take the first field only.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a label set starting just after the opening '{' and
// returns the text remaining after the closing '}'. The scan tracks quote
// state, so '}' and ',' inside quoted values (route patterns like
// "/v1/tenants/{tenant}") do not terminate the set.
func parseLabels(body string) (map[string]string, string, error) {
	labels := make(map[string]string)
	rest := strings.TrimSpace(body)
	for {
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("bad label pair in %q", body)
		}
		name := strings.TrimSpace(rest[:eq])
		if !nameRE.MatchString(name) {
			return nil, "", fmt.Errorf("bad label name %q", name)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q", name)
		}
		rest = rest[1:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\', '"':
					b.WriteByte(rest[i])
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %q", rest[i], name)
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return nil, "", fmt.Errorf("unterminated label value for %q", name)
		}
		labels[name] = b.String()
		rest = strings.TrimSpace(rest[i+1:])
		if rest != "" && rest[0] == ',' {
			rest = strings.TrimSpace(rest[1:])
		}
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Get returns the first sample with the given name whose labels include
// every pair in match (extra labels on the sample are ignored), and
// whether one was found.
func (sc *Scrape) Get(name string, match map[string]string) (Sample, bool) {
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return Sample{}, false
}

// Value returns the value of the first matching sample, or 0 when absent
// (use Get when absence matters).
func (sc *Scrape) Value(name string, match map[string]string) float64 {
	s, _ := sc.Get(name, match)
	return s.Value
}
