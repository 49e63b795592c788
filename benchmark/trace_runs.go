package main

import (
	"fmt"
	"strconv"
	"time"
)

// diagPasses is how many untraced passes a traced run of an ingest
// workload makes for the proc.* diagnostics.
const diagPasses = 3

// traceIngest is the traced run of an ingest workload: a few untraced
// passes for the process diagnostics, then one pass replayed at every
// depth (see replay).
func traceIngest(w *ingestWorkload, o options) error {
	defer w.disconnect(false)
	out := w.out
	warm, err := w.setUp(o.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.count(warm.ops())
	mem0 := readMem()
	var wall []float64
	var reports float64
	n := diagPasses
	if o.smoke {
		n = 1
	}
	for p := 1; p <= n; p++ {
		st, err := w.pass("p"+strconv.Itoa(p), -1)
		if err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		out.count(st.ops())
		wall = append(wall, st.ingestS)
		reports += float64(st.reports)
	}
	mem1 := readMem()
	out.set("proc.slow_pass_frac", slowFrac(wall))
	out.process(mem0, mem1, reports)
	if err := w.disconnect(false); err != nil {
		return err
	}

	rp := &replay{workload: w.name, pops: []*population{w.pop}, reqs: w.reqs,
		which: make([]int, len(w.reqs)), ctype: w.contentType(), wal: w.wal, smoke: o.smoke}
	defer rp.close()
	if err := rp.open(); err != nil {
		return err
	}
	if err := rp.run(out); err != nil {
		return err
	}
	if err := probeSolver(out, w.pop, w.pop.entries, tenantBuckets(w.pop, w.users)); err != nil {
		return err
	}
	return finishTrace(out, o)
}

// finishTrace adds the probes every traced run shares.
func finishTrace(out *outcome, o options) error {
	v, err := probePerturb(o.seed)
	if err != nil {
		return err
	}
	out.set("ldp.perturb_ns_per_report", v)
	return nil
}

// traceServe is the traced run of serve_mixed: one stretch for the
// generator and process diagnostics, then the requests it sent replayed at
// every depth on sibling tenant pairs.
func traceServe(o options, out *outcome) error {
	s := newServeWorkload(o)
	defer s.shutDown()
	warmOps, err := s.setUp(o.seed, out)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.count(warmOps)
	c, err := dial(s.col.addr)
	if err != nil {
		return err
	}
	defer c.close()
	mem0 := readMem()
	st, err := s.stretchOn(c, skipParts, out) // begins at request 0, like the warm-up
	if err != nil {
		return err
	}
	mem1 := readMem()
	out.count(st.ops())
	out.set("gen.lateness_p95_ms", quantile(st.lateMs, 0.95))
	out.process(mem0, mem1, float64(st.reports))
	s.shutDown()

	reqs := s.reqs[:st.sent]
	which := make([]int, len(reqs))
	for i := range which {
		if s.isFreq(i) {
			which[i] = 1
		}
	}
	rp := &replay{workload: "serve_mixed", pops: []*population{s.mean, s.freq}, reqs: reqs, which: which, ctype: ctFrame, smoke: o.smoke}
	defer rp.close()
	if err := rp.open(); err != nil {
		return err
	}
	if err := rp.run(out); err != nil {
		return err
	}
	// The solver probes run on what the mean tenant's window holds after
	// the replayed requests.
	var entries []entry
	for i := range reqs {
		if which[i] == 0 {
			entries = append(entries, reqs[i].batches[0]...)
		}
	}
	if err := probeSolver(out, s.mean, entries, tenantBuckets(s.mean, s.mean.sp.Serve.ExpectedUsers)); err != nil {
		return err
	}
	return finishTrace(out, o)
}

// traceBatch is the traced run of paper_batch: every trial is a root
// span with its collection and its three estimates as children.
func traceBatch(o options, out *outcome) error {
	b := &batchWorkload{users: batchUsers}
	trials := 2 * trialsPerPass
	if o.smoke {
		b.users, trials = batchSmokeUsers, 2
	}
	if err := b.prepare(o.seed); err != nil {
		return err
	}
	if _, err := b.pass(o.seed, 1<<40, 1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	// The same trials untraced first: their wall against the traced wall
	// is the tracing overhead.
	plain, err := b.pass(o.seed, 0, trials)
	if err != nil {
		return err
	}
	mem0 := readMem()
	tr := &tracer{}
	var stats []trialStats
	var wall []float64
	t0 := time.Now()
	for n := 0; n < trials; n++ {
		s := time.Since(t0)
		st, err := b.trial(o.seed, uint64(n))
		if err != nil {
			return err
		}
		root := tr.add(spanTrial, -1, 1, n, s.Nanoseconds(), s.Nanoseconds()+int64(st.totalMs*1e6))
		tr.nest(root, []string{spanCollect, spanEstim, spanEstim, spanEstim}, []time.Duration{
			time.Duration(st.collectMs * 1e6), time.Duration(st.estimateMs[0] * 1e6),
			time.Duration(st.estimateMs[1] * 1e6), time.Duration(st.estimateMs[2] * 1e6)})
		stats = append(stats, st)
		wall = append(wall, st.totalMs)
	}
	mem1 := readMem()
	out.set("trace.overhead_frac", max(0, time.Since(t0).Seconds()/plain.wallS-1))
	out.count(2*trials + 1)
	clipped, err := tr.check(spanTrial)
	if err != nil {
		out.fail("%v", err)
	}
	out.set("trace.clipped_frac", clipped)
	path, err := tr.write("paper_batch")
	if err != nil {
		return err
	}
	out.notef("trace: %d spans over %d trials written to %s", len(tr.spans), trials, path)
	out.set("core.collect_ms", quantile(column(stats, func(t trialStats) float64 { return t.collectMs }), 0.5))
	out.set("core.estimate_ms", quantile(column(stats, func(t trialStats) float64 { return t.estimateMs[2] }), 0.5))
	out.set("proc.slow_pass_frac", slowFrac(wall))
	out.process(mem0, mem1, float64(trials*b.reports))

	// Solver probes on the last collection, as histograms.
	pop, buckets := b.lastAsPopulation(b.ests[2])
	if err := probeSolver(out, pop, pop.entries, buckets); err != nil {
		return err
	}
	return finishTrace(out, o)
}
