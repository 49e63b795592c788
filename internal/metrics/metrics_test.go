package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.SetBool(true)
	if g.Value() != 1 {
		t.Fatalf("SetBool(true) = %v, want 1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 16 {
		t.Fatalf("sum = %v, want 16", got)
	}
	// Cumulative buckets: le=1 -> 2 (0.5 and 1), le=2 -> 3, le=5 -> 4, +Inf -> 5.
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"1": 2, "2": 3, "5": 4, "+Inf": 5}
	for le, n := range want {
		if got := sc.Value("test_hist_bucket", map[string]string{"le": le}); got != n {
			t.Errorf("bucket le=%s = %v, want %v", le, got, n)
		}
	}
	if got := sc.Value("test_hist_count", nil); got != 5 {
		t.Errorf("_count = %v, want 5", got)
	}
}

func TestVecPreBoundChildren(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_vec_total", "labeled counter", []string{"tenant"})
	a := cv.With("a")
	if cv.With("a") != a {
		t.Fatal("With should return the same child for the same labels")
	}
	a.Add(3)
	cv.With("b").Inc()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Value("test_vec_total", map[string]string{"tenant": "a"}); got != 3 {
		t.Fatalf("tenant=a = %v, want 3", got)
	}
	if got := sc.Value("test_vec_total", map[string]string{"tenant": "b"}); got != 1 {
		t.Fatalf("tenant=b = %v, want 1", got)
	}
	cv.Delete("b")
	buf.Reset()
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err = Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.Get("test_vec_total", map[string]string{"tenant": "b"}); ok {
		t.Fatal("deleted child still exposed")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r.Gauge("dup_total", "y")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("bad-name", "x")
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "count").Add(7)
	r.Gauge("rt_gauge", "gauge with \"quotes\" and \\ backslash").Set(-2.25)
	hv := r.HistogramVec("rt_seconds", "latency", []string{"route"}, []float64{0.001, 0.01, 0.1})
	hv.With("/v1/report").Observe(0.005)
	gv := r.GaugeVec("rt_eps", "spend", []string{"tenant"})
	gv.With(`we"ird\x`).Set(0.5)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE rt_total counter",
		"# TYPE rt_seconds histogram",
		`rt_seconds_bucket{le="0.01",route="/v1/report"} 1`,
		"rt_seconds_count{route=\"/v1/report\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	sc, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if sc.Types["rt_total"] != "counter" || sc.Types["rt_seconds"] != "histogram" {
		t.Fatalf("types = %v", sc.Types)
	}
	if got := sc.Value("rt_gauge", nil); got != -2.25 {
		t.Fatalf("rt_gauge = %v, want -2.25", got)
	}
	if got := sc.Value("rt_eps", map[string]string{"tenant": `we"ird\x`}); got != 0.5 {
		t.Fatalf("escaped label round-trip = %v, want 0.5", got)
	}
	if _, ok := sc.Get("rt_seconds_count", nil); !ok {
		t.Fatal("rt_seconds histogram missing")
	}
}

func TestParseBracesInLabelValue(t *testing.T) {
	// Route patterns like /v1/tenants/{tenant} put '}' and '{' inside
	// quoted label values; the scan must not terminate the set there.
	line := `dap_http_requests_total{code="2xx",route="/v1/tenants/{tenant}/report"} 4` + "\n"
	sc, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := sc.Get("dap_http_requests_total", map[string]string{"route": "/v1/tenants/{tenant}/report"})
	if !ok || got.Value != 4 {
		t.Fatalf("sample = %+v, ok=%v", got, ok)
	}
}

func TestParseInf(t *testing.T) {
	sc, err := Parse(strings.NewReader("x_bucket{le=\"+Inf\"} 3\nx_sum +Inf\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(sc.Value("x_sum", nil), 1) {
		t.Fatal("want +Inf sum")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		"bad{le=unquoted} 1\n",
		"bad{le=\"open} 1\n",
		"bad value\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
}

func TestConcurrentUpdatesAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "x")
	h := r.Histogram("cc_seconds", "x", []float64{0.01, 0.1, 1})
	cv := r.CounterVec("cc_vec_total", "x", []string{"t"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := cv.With(string(rune('a' + i%4)))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				child.Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if _, err := r.WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := Parse(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestHotPathAllocFree is the package-local version of the repo-wide
// alloc guard: updating a pre-bound handle must not allocate.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("af_total", "x")
	g := r.Gauge("af_gauge", "x")
	h := r.Histogram("af_seconds", "x", []float64{0.001, 0.01, 0.1, 1})
	cv := r.CounterVec("af_vec_total", "x", []string{"t"})
	child := cv.With("a")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		g.Add(0.5)
		h.Observe(0.004)
		child.Inc()
	})
	if allocs != 0 {
		t.Fatalf("hot-path update allocates %v allocs/op, want 0", allocs)
	}
}

func TestDefaultRegistryConstructors(t *testing.T) {
	// The Default registry is shared process-wide; use test-unique names.
	c := NewCounter("pkg_test_default_total", "x")
	c.Inc()
	var buf bytes.Buffer
	if _, err := Default().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pkg_test_default_total 1") {
		t.Fatal("default registry missing package-level counter")
	}
}
