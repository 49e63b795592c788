package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// They attribute the end-to-end numbers to layers; none is gated. A
// workload that bypasses a layer reports zero for it.
var perLayer = []metricDef{
	{"transport.http_ns_per_report", "ns"},
	{"transport.socket_self_ns_per_report", "ns"},
	{"transport.handler_ns_per_report", "ns"},
	{"transport.handler_self_ns_per_report", "ns"},
	{"transport.handler_allocs_per_report", "count"},
	{"transport.body_bytes_per_report", "B"},
	{"transport.requests", "count"},
	{"wirebin.decode_ns_per_report", "ns"},
	{"wirebin.decode_allocs_per_report", "count"},
	{"wirebin.frame_bytes_per_report", "B"},
	{"stream.ingest_batch_ns_per_report", "ns"},
	{"stream.self_ns_per_report", "ns"},
	{"stream.ingest_batch_allocs_per_report", "count"},
	{"stream.ingest_batch_scale2", "ratio"},
	{"stream.heap_bytes_per_user", "B"},
	{"privacy.ledger_bytes_per_user", "B"},
	{"privacy.spend_ns_per_report", "ns"},
	{"privacy.spend_scale2", "ratio"},
	{"store.append_ns_per_report", "ns"},
	{"store.append_scale2", "ratio"},
	{"store.wal_bytes_per_report", "B"},
	{"store.recover_ns_per_report", "ns"},
	{"store.snapshot_ms", "ms"},
	{"stream.rotate_ms", "ms"},
	{"stream.seal_ms", "ms"},
	{"stream.estimate_live_ms", "ms"},
	{"stream.estimate_cached_us", "us"},
	{"core.estimate_hist_ms", "ms"},
	{"emf.run_ms", "ms"},
	{"emf.matrix_build_ms", "ms"},
	{"emf.iters_per_estimate", "count"},
	{"emf.restarts", "count"},
	{"core.collect_ms", "ms"},
	{"core.estimate_ms", "ms"},
	{"ldp.perturb_ns_per_report", "ns"},
	{"wirebin.delta_encode_ms", "ms"},
	{"wirebin.delta_bytes", "B"},
	{"stream.coordinator_apply_ms", "ms"},
	{"metrics.scrape_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.alloc_mb_per_mreport", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.slow_pass_frac", "ratio"},
	{"gen.lateness_p95_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// Span names, one per layer boundary the benchmark can reach from
// outside. Depth grows down the list.
const (
	spanHTTP    = "transport.http"      // loopback POST, send → ack
	spanHandler = "transport.handler"   // Server.Handler().ServeHTTP, in memory
	spanDecode  = "wirebin.decode"      // Decoder.Decode of one frame
	spanBatch   = "stream.ingest_batch" // Tenant.IngestBatch of one batch
	spanSpend   = "privacy.spend"       // Accountant.SpendN over one batch
	spanAppend  = "store.append"        // Store.AppendIngestBatch of one batch
	spanTrial   = "batch.trial"         // one paper_batch trial
	spanCollect = "core.collect"        // Collector.Collect
	spanEstim   = "core.estimate"       // Estimator.Estimate
)

// span is one call into a layer's public function. Times are nanoseconds
// since the trace began; Parent is the ID of the span that caused it, -1
// for a root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Pass    int    `json:"pass"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. clipped is how many
// nanoseconds nest cut off children that did not fit their parent.
type tracer struct {
	spans   []span
	clipped int64
}

func (t *tracer) add(name string, parent, pass, request int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: end, Parent: parent, Pass: pass, Request: request})
	return id
}

// nest records child spans of the given durations inside parent, back to
// back and centred. The children were measured on a sibling tenant with
// the same inputs, so only their durations are real; a child longer than
// the room left is cut at the parent's end.
func (t *tracer) nest(parent int, names []string, durs []time.Duration) []int {
	p := t.spans[parent]
	var total int64
	for _, d := range durs {
		total += d.Nanoseconds()
	}
	at := p.Start + max(0, (p.End-p.Start-total)/2)
	ids := make([]int, len(durs))
	for i, d := range durs {
		end := min(at+d.Nanoseconds(), p.End)
		t.clipped += at + d.Nanoseconds() - end
		ids[i] = t.add(names[i], parent, p.Pass, p.Request, min(at, p.End), end)
		at = end
	}
	return ids
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// totalTimes sums span durations per name.
func totalTimes(spans []span) map[string]int64 {
	tot := make(map[string]int64)
	for _, s := range spans {
		tot[s.Name] += s.End - s.Start
	}
	return tot
}

// checkSelfSum requires the self times of a trace to add up to its root
// spans within 2 %: nothing was lost or counted twice by the nesting.
func checkSelfSum(spans []span, root string) error {
	var selfSum int64
	for _, v := range selfTimes(spans) {
		selfSum += v
	}
	rootSum := totalTimes(spans)[root]
	if rootSum == 0 {
		return fmt.Errorf("trace holds no %s span", root)
	}
	if d := float64(selfSum-rootSum) / float64(rootSum); d > 0.02 || d < -0.02 {
		return fmt.Errorf("span self times sum to %d ns, the %s spans to %d ns (%.1f %% apart)", selfSum, root, rootSum, 100*d)
	}
	return nil
}

// maxClipped is the share of the root spans' time that nest may have had
// to cut off children before the trace is refused. The depths are replayed
// one after another, seconds apart on a machine whose speed drifts, and an
// in-memory handler call is not exactly a sub-interval of the loopback
// round trip it stands for (there the client's write overlaps the server's
// read), so a tenth to a fifth is routinely cut; past a third the depths
// disagree so much that the self times say nothing.
const maxClipped = 1.0 / 3

// check is what a finished trace must satisfy. nest cuts a child at its
// parent's end, so the self times add up by construction (checkSelfSum
// guards the arithmetic, not the measurement); the measurement is judged
// by how much had to be cut. It returns that share of the root spans' time.
func (t *tracer) check(root string) (clipped float64, err error) {
	if err := checkSelfSum(t.spans, root); err != nil {
		return 0, err
	}
	clipped = float64(t.clipped) / float64(totalTimes(t.spans)[root])
	if clipped > maxClipped {
		return clipped, fmt.Errorf("%d ns of child spans (%.1f %% of the %s spans) did not fit their parents: the depths disagree", t.clipped, 100*clipped, root)
	}
	return clipped, nil
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(scratchRoot, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// medianOf runs f n times and returns the median duration in ms.
func medianOf(n int, f func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		s := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(s))
	}
	return quantile(xs, 0.5), nil
}

// probePerturb times the client-side mechanism: one PM perturbation at
// the smallest group budget of the ingest spec.
func probePerturb(seed uint64) (float64, error) {
	p, err := newPM(0.25)
	if err != nil {
		return 0, err
	}
	const n = 2_000_000
	r := newRand(seed, 99)
	var sink float64
	s := time.Now()
	for i := 0; i < n; i++ {
		sink += p.perturb(r, -0.2)
	}
	d := time.Since(s)
	if sink == 0 {
		return 0, fmt.Errorf("perturbation produced only zeros")
	}
	return float64(d.Nanoseconds()) / n, nil
}

// probeSolver times the estimation layers directly on the reference
// histograms of a mean-task population: EstimateHist (core), one plain
// EMF fit of the smallest-budget group and its uncached matrix build.
func probeSolver(out *outcome, p *population, entries []entry, buckets []int) error {
	hc, err := referenceHistograms(p, entries, buckets)
	if err != nil {
		return err
	}
	var res *result
	v, err := medianOf(5, func() (err error) { res, err = estimateHist(p.est, hc); return })
	if err != nil {
		return err
	}
	out.set("core.estimate_hist_ms", v)
	out.set("emf.iters_per_estimate", float64(res.EMFIters))
	out.set("emf.restarts", float64(res.EMFRestarts))
	if p.sp.K > 0 {
		return nil // the matrix probes below are PM-specific
	}
	last := len(p.groups) - 1
	eps := p.groups[last].Eps
	var m *emfMatrix
	if v, err = medianOf(3, func() (err error) { m, err = buildMatrix(eps, buckets[last]); return }); err != nil {
		return err
	}
	out.set("emf.matrix_build_ms", v)
	if v, err = medianOf(5, func() error { _, _, err := runEMF(m, hc.Counts[last], eps); return err }); err != nil {
		return err
	}
	out.set("emf.run_ms", v)
	return nil
}
