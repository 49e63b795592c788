// Command benchmark is the repository's performance benchmark: five
// workloads, seven end-to-end metrics and a set of per-layer probes, all
// defined in BENCHMARK.json at the repository root and explained in
// benchmark/README.md.
//
//	go run ./benchmark -workload ingest_bin -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -workload ingest_bin -seed 1 -seconds 12 -trace 1
//	go run ./benchmark -calibrate
//
// It boots the collector in-process, drives it over host loopback from
// inputs generated from -seed, checks every result against a reference
// computation and prints each metric by name with its unit; the last line
// of standard output is one JSON object with the run's verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool // 1 pass at 20 k users: the test-suite scale
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reports_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"estimate_ms", "ms"},
	{"cpu_s_per_mreport", "s"},
	{"live_heap_mb", "MB"},
}

// outcome is what a run measured.
type outcome struct {
	values map[string]float64
	ops    int
	failed int
	notes  []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// count adds operations that were attempted and succeeded.
func (o *outcome) count(ops int) { o.ops += ops }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation or check. The run goes on where it
// can, so the report shows everything that was wrong, and ends non-zero
// with "correct": false.
func (o *outcome) fail(format string, args ...any) {
	o.ops++
	o.failed++
	o.notef("FAILED: "+format, args...)
}

// passSeries holds, for each aggregated end-to-end metric, one value per
// pass of a run (per stretch in serve_mixed).
type passSeries struct {
	rate, p50, p95, est, cpu, heap []float64
	wall                           []float64 // per-pass cost that slow_pass_frac is taken over
}

// aggregate turns the per-pass series into the seven end-to-end metrics:
// the fast-side quartile across passes, brought to the yardstick's nominal
// machine speed (see yardstick.go). What the run measured before that, the
// plain medians and the series are printed beside them, so a disturbed or
// bimodal run shows.
func (o *outcome) aggregate(setupS float64, s passSeries, y *yardstick) {
	run, setup := y.runSpeed(), y.setupSpeed()
	o.set("setup_s", setupS*setup)
	o.set("reports_per_s", fastQuartile(s.rate, true)/run)
	o.set("op_p50_ms", fastQuartile(s.p50, false)*run)
	o.set("op_p95_ms", fastQuartile(s.p95, false)*run)
	o.set("estimate_ms", fastQuartile(s.est, false)*run)
	o.set("cpu_s_per_mreport", fastQuartile(s.cpu, false)*run)
	o.set("live_heap_mb", fastQuartile(s.heap, false)-y.heapMB)
	o.set("proc.slow_pass_frac", slowFrac(s.wall))
	between := y.samples[y.setupSamples:]
	o.set("yardstick.sample_ms", fastQuartile(between, false))
	o.set("yardstick.speed", run)
	o.notef("machine speed by the yardstick: %.4f over the run (fast quartile of the %d samples between passes %.3f ms, nominal %g ms), %.4f over the %d between set-ups",
		run, len(between), fastQuartile(between, false), yardNominalMs, setup, y.setupSamples)
	o.notef("as measured, before scaling: setup_s %.4f  reports_per_s %.0f  op_p50_ms %.4f  op_p95_ms %.4f  estimate_ms %.4f  cpu_s_per_mreport %.4f",
		setupS, fastQuartile(s.rate, true), fastQuartile(s.p50, false), fastQuartile(s.p95, false), fastQuartile(s.est, false), fastQuartile(s.cpu, false))
	o.notef("plain medians, as measured: reports_per_s %.0f  op_p50_ms %.4f  op_p95_ms %.4f  estimate_ms %.4f  cpu_s_per_mreport %.4f",
		quantile(s.rate, 0.5), quantile(s.p50, 0.5), quantile(s.p95, 0.5), quantile(s.est, 0.5), quantile(s.cpu, 0.5))
	o.notef("yardstick samples (ms): %.2f", y.samples)
	o.notef("per pass reports_per_s: %.0f", s.rate)
	o.notef("per pass op_p50_ms: %.3f", s.p50)
	o.notef("per pass op_p95_ms: %.3f", s.p95)
	o.notef("per pass estimate_ms: %.2f", s.est)
	o.notef("per pass cpu_s_per_mreport: %.3f", s.cpu)
}

// setUpRepeats is how many times a run sets up; setup_s is the median. A
// single set-up is one 1–1.5 s reading that any neighbour's burst lands in
// whole, and the first one also pays for the process's page faults.
const setUpRepeats = 3

// timeSetUps runs the workload's complete set-up — input generation and
// encoding, collector boot, warm-up pass; setUp tears down what the
// previous repeat built — setUpRepeats times, the first timed from process
// start, samples the yardstick after each, and returns the median duration
// in seconds.
func timeSetUps(o options, yard *yardstick, setUp func() error) (float64, error) {
	repeats := setUpRepeats
	if o.smoke {
		repeats = 1
	}
	var took []float64
	for rep := 0; rep < repeats; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if err := setUp(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		if err := yard.sampleN(yardSetupN); err != nil {
			return 0, err
		}
	}
	yard.setupSamples = len(yard.samples)
	return quantile(took, 0.5), nil
}

// process records the allocator and memory diagnostics of the timed part
// of a run that handled `reports` reports.
func (o *outcome) process(before, after memCounters, reports float64) {
	o.set("proc.peak_rss_mb", peakRSSMB())
	o.set("proc.alloc_mb_per_mreport", float64(after.bytes-before.bytes)/reports)
	o.set("proc.gc_cycles", float64(after.gcs-before.gcs))
}

// workload is one named entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	run  func(options, *outcome) error
}

func ingestRunner(name, wire string, wal bool) workload {
	return workload{name, func(o options, out *outcome) error {
		w := &ingestWorkload{name: name, wire: wire, wal: wal, users: ingestUsers, out: out}
		if o.smoke {
			w.users = smokeUsers
		}
		if o.trace {
			return traceIngest(w, o)
		}
		return runIngest(w, o)
	}}
}

var workloads = []workload{
	ingestRunner("ingest_bin", "bin", false),
	ingestRunner("ingest_json", "json", false),
	ingestRunner("ingest_wal", "bin", true),
	{"serve_mixed", func(o options, out *outcome) error {
		if o.trace {
			return traceServe(o, out)
		}
		return runServe(o, out)
	}},
	{"paper_batch", func(o options, out *outcome) error {
		if o.trace {
			return traceBatch(o, out)
		}
		return runBatch(o, out)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pinRuntime fixes the scheduler and collector settings every run shares,
// whatever the environment says.
func pinRuntime() (procs, gcPercent int) {
	procs = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	gcPercent = 100
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(math.MaxInt64)
	return procs, gcPercent
}

// cleanScratch removes the scratch WAL directories an interrupted run
// may have left under benchmark/out.
func cleanScratch() {
	stale, _ := filepath.Glob(filepath.Join(scratchRoot, "wal-*"))
	for _, dir := range stale {
		_ = os.RemoveAll(dir)
	}
}

// cleanScratchOnSignal clears stale scratch directories now and again if
// the run is interrupted, so no exit path leaves a WAL directory behind.
func cleanScratchOnSignal() (stop func()) {
	cleanScratch()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			cleanScratch()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and writes the report to w.
func execute(o options, w io.Writer) error {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	procs, gcPercent := pinRuntime()
	stop := cleanScratchOnSignal()
	defer stop()
	// The collector logs recoveries at Info; keep stdout and stderr for
	// the report and for failures.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t gomaxprocs %d gcpercent %d nproc %d %s\n",
		o.workload, o.seed, o.seconds, o.trace, procs, gcPercent, runtime.NumCPU(), runtime.Version())
	out := newOutcome()
	if err := wl.run(o, out); err != nil {
		out.fail("run aborted: %v", err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	v := verdict{Correct: out.failed == 0, Attempted: out.ops, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		val, ok := out.values[d.name]
		if !ok && !o.trace && out.failed == 0 {
			out.fail("workload %s did not measure %s", o.workload, d.name)
			v.Correct, v.Attempted, v.Failed = false, out.ops, out.failed
		}
		// A layer a workload bypasses reports zero.
		v.Metrics[d.name] = metricValue{Value: val, Unit: d.unit}
		listed[d.name] = true
		fmt.Fprintf(w, "%-42s %16.6f %s\n", d.name, val, d.unit)
	}
	var extra []string
	for name := range out.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-42s %16.6f (diagnostic)\n", name, out.values[name])
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "ops %d\nfailed_ops %d\n", out.ops, out.failed)
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.ops)
	}
	return nil
}

func main() {
	var o options
	var trace int
	var calibrate bool
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "one pass at test scale")
	flag.BoolVar(&calibrate, "calibrate", false, "run 6 full sets and compare their medians against the bounds")
	flag.Parse()
	o.trace = trace != 0
	var err error
	if calibrate {
		err = runCalibration(os.Stdout)
	} else {
		err = execute(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAIL:", err)
		os.Exit(1)
	}
}
