package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

func bodies(t *testing.T, seed uint64) (bin, js []request) {
	t.Helper()
	pop, err := genPopulation(ingestSpec(3000), seed, 0, 3000, ingestGamma)
	if err != nil {
		t.Fatal(err)
	}
	if bin, err = encodeFrames(pop.entries, usersPerFrame, framesPerRequest); err != nil {
		t.Fatal(err)
	}
	if js, err = encodeJSON(pop.entries, usersPerJSON); err != nil {
		t.Fatal(err)
	}
	return bin, js
}

func TestSameSeedSameBodies(t *testing.T) {
	b1, j1 := bodies(t, 7)
	b2, j2 := bodies(t, 7)
	b3, _ := bodies(t, 8)
	same := func(a, b []request) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				return false
			}
		}
		return true
	}
	if !same(b1, b2) || !same(j1, j2) {
		t.Fatal("the same seed produced different request bodies")
	}
	if same(b1, b3) {
		t.Fatal("different seeds produced identical request bodies")
	}
	// Frames alias their body, one per batch.
	for _, rq := range b1 {
		if len(rq.frames) != len(rq.batches) {
			t.Fatalf("%d frames for %d batches", len(rq.frames), len(rq.batches))
		}
		var dec frameDecoder
		for f, raw := range rq.frames {
			if n, err := decodeFrame(&dec, raw); err != nil || n != len(rq.batches[f]) {
				t.Fatalf("frame %d decodes to %d entries (%v), want %d", f, n, err, len(rq.batches[f]))
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN")
	}
	if got := fastQuartile(xs, true); got != 4 {
		t.Errorf("fast quartile of a rate = %v, want the 75th percentile 4", got)
	}
	if got := fastQuartile(xs, false); got != 2 {
		t.Errorf("fast quartile of a cost = %v, want the 25th percentile 2", got)
	}
	// Fast quartile 2, limit 2.5: the passes at 3, 4 and 5 are slow.
	if got := slowFrac(xs); got != 0.6 {
		t.Errorf("slowFrac = %v, want 0.6", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add("a", -1, 1, 0, 0, 100)
	kids := tr.nest(root, []string{"b", "c"}, []time.Duration{30, 20})
	tr.nest(kids[0], []string{"d"}, []time.Duration{10})
	other := tr.add("a", -1, 1, 1, 200, 260)
	tr.nest(other, []string{"b"}, []time.Duration{90}) // measured longer than its parent: cut
	self := selfTimes(tr.spans)
	want := map[string]int64{"a": 50 + 0, "b": 20 + 60, "c": 20, "d": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	if b := tr.spans[kids[0]]; b.Start != 25 || b.End != 55 {
		t.Errorf("first child placed at [%d,%d], want centred [25,55]", b.Start, b.End)
	}
	if err := checkSelfSum(tr.spans, "a"); err != nil {
		t.Error(err)
	}
	// The 90 ns child of the 60 ns span lost 30 ns of the roots' 160.
	if frac, err := tr.check("a"); err != nil || frac != 30.0/160 {
		t.Errorf("clipped share %v (%v), want 30/160", frac, err)
	}
	tr.nest(other, []string{"b"}, []time.Duration{100}) // no room left at all: 100 more ns cut
	if _, err := tr.check("a"); err == nil {
		t.Error("a trace that cut 130 of its 160 root ns must fail its check")
	}
	bad := append([]span(nil), tr.spans...)
	bad = append(bad, span{ID: len(bad), Name: "e", Parent: -1, Start: 0, End: 50})
	if checkSelfSum(bad, "a") == nil {
		t.Error("a stray root span must break the self-time sum")
	}
}

func TestChargedFrom(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		name                      string
		due, sent, prevDone, want int
	}{
		{"on time", 10, 10, 5, 10},
		{"generator woke late, connection free", 10, 12, 5, 12},
		{"previous operation overran", 10, 14, 14, 10},
		{"previous operation overran and the generator was slow too", 10, 16, 14, 10},
	} {
		if got := chargedFrom(at(c.due), at(c.sent), at(c.prevDone)); !got.Equal(at(c.want)) {
			t.Errorf("%s: charged from %v, want %v", c.name, got.Sub(t0), at(c.want).Sub(t0))
		}
	}
}

// TestFailedCheckStillReports: a failed check is counted, the run goes on,
// and the report ends with a verdict that says so.
func TestFailedCheckStillReports(t *testing.T) {
	workloads = append(workloads, workload{"failing", func(o options, out *outcome) error {
		out.count(3)
		out.fail("a check that does not hold")
		for _, d := range endToEnd {
			out.set(d.name, 1)
		}
		return nil
	}})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var buf bytes.Buffer
	if err := execute(options{workload: "failing", seed: 1, seconds: 1}, &buf); err == nil {
		t.Fatal("a run with a failed check must end in an error")
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var v verdict
	if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if v.Correct || v.Failed != 1 || v.Attempted != 4 || len(v.Metrics) != len(endToEnd) {
		t.Errorf("verdict %+v", v)
	}
	if !bytes.Contains(buf.Bytes(), []byte("failed_ops 1")) || !bytes.Contains(buf.Bytes(), []byte("FAILED: a check that does not hold")) {
		t.Errorf("report lacks the failure:\n%s", buf.String())
	}
}

func TestYardstick(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	if err := y.sampleN(yardSetupN + 1); err != nil {
		t.Fatal(err)
	}
	if len(y.samples) != yardSetupN+1 || !(fastQuartile(y.samples, false) > 0) {
		t.Fatalf("samples %v", y.samples)
	}
	// The table (8 MiB) and the bodies (4 MiB) are what it keeps.
	if y.heapMB < 12 || y.heapMB > 16 {
		t.Errorf("yardstick keeps %.1f MB, want about 12.6", y.heapMB)
	}
	y.samples = []float64{yardNominalMs * 2, yardNominalMs * 2, yardNominalMs * 2, yardNominalMs * 2, yardNominalMs, yardNominalMs, yardNominalMs, yardNominalMs}
	y.setupSamples = 4
	if got := y.setupSpeed(); got != 0.5 {
		t.Errorf("set-up speed %v, want 0.5 from the samples taken between set-ups", got)
	}
	if got := y.runSpeed(); got != 1 {
		t.Errorf("run speed %v, want 1 from the samples taken between passes", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program says %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], the program says %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		// The benchmark contract caps a bound at 25 % and gives set-up
		// time, a handful of readings per run, the widest.
		if m.Bound <= 0 || m.Bound > bf.EndToEnd[0].Bound || bf.EndToEnd[0].Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, setup_s's %v ≤ 0.25]", m.Name, m.Bound, bf.EndToEnd[0].Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], the program says %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// requires exactly the metric names BENCHMARK.json lists with every
// check green.
func TestSmoke(t *testing.T) {
	t.Chdir("..") // scratch files and BENCHMARK.json are relative to the repository root
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var buf bytes.Buffer
			o := options{workload: wl.name, seed: 11, seconds: 1, trace: trace, smoke: true}
			if err := execute(o, &buf); err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", wl.name, trace, err, buf.String())
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var v verdict
			if err := json.Unmarshal(lines[len(lines)-1], &v); err != nil {
				t.Fatalf("%s trace=%t: last line: %v", wl.name, trace, err)
			}
			if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
				t.Errorf("%s trace=%t: verdict %+v", wl.name, trace, v)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(v.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", wl.name, trace, len(v.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := v.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", wl.name, trace, d.name)
				case !metricName.MatchString(d.name) || m.Unit != d.unit:
					t.Errorf("%s trace=%t: metric %s [%s] malformed", wl.name, trace, d.name, m.Unit)
				case math.IsNaN(m.Value) || m.Value < 0 || !trace && m.Value == 0:
					t.Errorf("%s trace=%t: metric %s = %v", wl.name, trace, d.name, m.Value)
				}
			}
		}
	}
}
