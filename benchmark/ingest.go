package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Shape of the three closed-loop ingest workloads.
const (
	ingestUsers      = 450_000 // ≈ 1.05 M reports per pass at h = 3
	smokeUsers       = 20_000
	ingestGamma      = 0.1
	usersPerFrame    = 200
	framesPerRequest = 8
	usersPerJSON     = 200
	senders          = 2  // connections, one sender goroutine each
	estimatesPerPass = 10 // live estimates timed after each pass's ingest, half per connection
	minPasses        = 6
	maxPasses        = 64
	skipParts        = 16 // pass p leaves out the (p mod 16)-th sixteenth of the requests
	scratchRoot      = "benchmark/out"
)

// ingestWorkload is one of ingest_bin, ingest_json, ingest_wal.
type ingestWorkload struct {
	name  string
	wire  string // "bin" or "json"
	wal   bool
	users int

	pop  *population
	reqs []request
	col  *collector
	ctl  *conn
	data []*conn
	out  *outcome // where failed checks are recorded
}

func ingestSpec(users int) spec { return meanSpec("emfstar", 1, 0.25, users) }

// prepare generates and encodes the inputs from the seed.
func (w *ingestWorkload) prepare(seed uint64) error {
	pop, err := genPopulation(ingestSpec(w.users), seed, 0, w.users, ingestGamma)
	if err != nil {
		return err
	}
	w.pop = pop
	if w.wire == "json" {
		w.reqs, err = encodeJSON(pop.entries, usersPerJSON)
	} else {
		w.reqs, err = encodeFrames(pop.entries, usersPerFrame, framesPerRequest)
	}
	return err
}

func (w *ingestWorkload) contentType() string {
	if w.wire == "json" {
		return ctJSON
	}
	return ctFrameStream
}

// connect boots a collector (durable under dir when dir is set) and opens
// the control and data connections.
func (w *ingestWorkload) connect(dir string) error {
	col, err := bootCollector(dir)
	if err != nil {
		return err
	}
	w.col = col
	if w.ctl, err = dial(col.addr); err != nil {
		return err
	}
	w.data = make([]*conn, senders)
	for i := range w.data {
		if w.data[i], err = dial(col.addr); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWorkload) disconnect(crash bool) error {
	if w.ctl != nil {
		w.ctl.close()
	}
	for _, c := range w.data {
		if c != nil {
			c.close()
		}
	}
	w.ctl, w.data = nil, nil
	if w.col == nil {
		return nil
	}
	col := w.col
	w.col = nil
	return col.close(crash)
}

// passStats is what one pass of identical work measured.
type passStats struct {
	reports   int
	ingestS   float64   // wall of the ingest phase
	latMs     []float64 // send→ack per request
	estMs     []float64 // live estimate latencies
	estimateS float64   // wall of the estimate phase
	cpuS      float64   // process CPU over the ingest and estimate phases
	heapMB    float64   // live heap after ingest, tenant alive
	estimate  estimateResponse
}

func (s passStats) rate() float64 { return float64(s.reports) / s.ingestS }

// ops is how many operations the pass attempted.
func (s passStats) ops() int { return len(s.latMs) + len(s.estMs) }

// skipRange is the part of the request list pass number `skip` leaves out
// (nothing when skip is negative). The EM iteration count of an estimate
// moves by ±5 % with the data; rotating a sixteenth out gives the passes
// of one run sixteen different report sets to average it over, where
// identical passes would all repeat the one count the seed happened to draw.
func (w *ingestWorkload) skipRange(skip int) (lo, hi int) {
	if skip < 0 {
		return 0, 0
	}
	k := skip % skipParts
	return k * len(w.reqs) / skipParts, (k + 1) * len(w.reqs) / skipParts
}

// ingestPhase drives the requests outside [skipLo, skipHi) over the data
// connections, closed loop: each sender takes the next unsent request once
// its previous one is acked. Only bytes prepared during set-up are written.
func (w *ingestWorkload) ingestPhase(conns []*conn, tenant string, skipLo, skipHi int, st *passStats) error {
	hd := head("POST", routeIngest(tenant), w.contentType())
	lat := make([][]float64, len(conns))
	errs := make([]error, len(conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]float64, 0, len(w.reqs)/len(conns)+8)
			for {
				i := int(next.Add(1)) - 1
				if i >= skipLo {
					i += skipHi - skipLo
				}
				if i >= len(w.reqs) {
					break
				}
				rq := &w.reqs[i]
				s := time.Now()
				status, body, err := c.roundTrip(hd, rq.lenLine, rq.body)
				mine = append(mine, ms(time.Since(s)))
				if err == nil && (status != 200 || !bytes.HasPrefix(body, rq.ack)) {
					err = fmt.Errorf("request %d: HTTP %d: %s", i, status, body)
				}
				if err != nil {
					errs[k] = err
					break
				}
			}
			lat[k] = mine
		}()
	}
	wg.Wait()
	st.ingestS = time.Since(t0).Seconds()
	st.cpuS += (cpuTime() - cpu0).Seconds()
	for k := range conns {
		if errs[k] != nil {
			return errs[k]
		}
		st.latMs = append(st.latMs, lat[k]...)
	}
	st.reports = w.pop.reports
	for i := skipLo; i < skipHi; i++ {
		st.reports -= w.reqs[i].reports
	}
	return nil
}

// estimatePhase times live estimates over everything just ingested, both
// connections asking at once, closed loop, like the ingest phase. With a
// single caller the estimate's per-group goroutines run on one or on both
// processors depending on how fast the idle one wakes, and the same call
// takes 11 or 19 ms in plateaus; with both processors busy it does not.
// How the two callers' goroutines interleave still decides which of them
// waits (single latencies of 19 or 33 ms), so what is reported is the
// wall of the phase per round of one estimate each: the work, whoever
// got the processors first.
func (w *ingestWorkload) estimatePhase(conns []*conn, tenant string, st *passStats) error {
	hd := head("GET", routeLive(tenant), "")
	lat := make([][]float64, len(conns))
	errs := make([]error, len(conns))
	var last []byte
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for k, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < estimatesPerPass/len(conns); i++ {
				s := time.Now()
				status, body, err := c.roundTrip(hd, []byte("\r\n"))
				lat[k] = append(lat[k], ms(time.Since(s)))
				if err == nil && status != 200 {
					err = fmt.Errorf("live estimate: HTTP %d: %s", status, body)
				}
				if err != nil {
					errs[k] = err
					return
				}
				if k == 0 {
					last = body // aliases the connection's buffer until its next call
				}
			}
		}()
	}
	wg.Wait()
	st.estimateS = time.Since(t0).Seconds()
	st.cpuS += (cpuTime() - cpu0).Seconds()
	for k := range conns {
		if errs[k] != nil {
			return errs[k]
		}
		st.estMs = append(st.estMs, lat[k]...)
	}
	st.estimate = estimateResponse{} // never decode into slices a caller kept
	return json.Unmarshal(last, &st.estimate)
}

// ingestedTotal reads the server-side report count of a tenant.
func ingestedTotal(c *conn, tenant string) (int, error) {
	body, err := c.expect(200, "GET", routeStatus(tenant), "", nil)
	if err != nil {
		return 0, err
	}
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	n := 0
	for _, g := range st.GroupReports {
		n += g
	}
	return n, nil
}

// pass runs one pass on a fresh tenant: create, ingest (all but the
// sixteenth numbered skip), collect garbage, estimate, check the totals,
// delete. Garbage collection runs untimed between the phases so no pass
// inherits another's debt.
func (w *ingestWorkload) pass(tenant string, skip int) (passStats, error) {
	var st passStats
	if w.wal {
		dir, err := os.MkdirTemp(scratchRoot, "wal-")
		if err != nil {
			return st, err
		}
		defer os.RemoveAll(dir)
		if err := w.connect(dir); err != nil {
			return st, err
		}
		defer w.disconnect(false)
	}
	if _, err := w.ctl.expect(201, "POST", routeTenants, ctJSON, tenantCreateBody(tenant, w.pop.sp)); err != nil {
		return st, err
	}
	runtime.GC()
	lo, hi := w.skipRange(skip)
	if err := w.ingestPhase(w.data, tenant, lo, hi, &st); err != nil {
		return st, err
	}
	st.heapMB = liveHeapMB()
	got, err := ingestedTotal(w.ctl, tenant)
	if err != nil {
		return st, err
	}
	if got != st.reports {
		w.out.fail("tenant %s holds %d reports, %d were acked", tenant, got, st.reports)
	}
	if err := w.estimatePhase(w.data, tenant, &st); err != nil {
		return st, err
	}
	if _, err := w.ctl.expect(204, "DELETE", routeTenant(tenant), "", nil); err != nil {
		return st, err
	}
	runtime.GC()
	return st, nil
}

// setUp is the set-up: inputs from the seed, a collector, and the untimed
// warm-up pass (pass 0), which ingests everything.
func (w *ingestWorkload) setUp(seed uint64) (passStats, error) {
	if err := w.prepare(seed); err != nil {
		return passStats{}, err
	}
	if !w.wal {
		if err := w.connect(""); err != nil {
			return passStats{}, err
		}
	}
	return w.pass("p0", -1)
}

// recoveryCheck ingests one more tenant into a fresh store, abandons the
// collector as a crash would, reopens the store and requires the
// recovered estimate and ledger to equal the pre-crash ones bit for bit.
func (w *ingestWorkload) recoveryCheck() error {
	dir, err := os.MkdirTemp(scratchRoot, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := w.connect(dir); err != nil {
		return err
	}
	defer w.disconnect(true)
	const tenant = "rec"
	if _, err := w.ctl.expect(201, "POST", routeTenants, ctJSON, tenantCreateBody(tenant, w.pop.sp)); err != nil {
		return err
	}
	var st passStats
	if err := w.ingestPhase(w.data, tenant, 0, 0, &st); err != nil {
		return err
	}
	if err := w.estimatePhase(w.data, tenant, &st); err != nil {
		return err
	}
	before := st.estimate
	t, ok := w.col.tenant(tenant)
	if !ok {
		return fmt.Errorf("tenant %s vanished before the crash", tenant)
	}
	spent := ledger(t)
	if err := w.disconnect(true); err != nil {
		return err
	}
	if err := w.connect(dir); err != nil {
		return err
	}
	if err := w.estimatePhase(w.data, tenant, &st); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	if !reflect.DeepEqual(before, st.estimate) {
		w.out.fail("recovered estimate %+v differs from pre-crash %+v", st.estimate, before)
	}
	t, ok = w.col.tenant(tenant)
	if !ok {
		return fmt.Errorf("tenant %s was not recovered", tenant)
	}
	if got := ledger(t); !reflect.DeepEqual(spent, got) {
		w.out.fail("recovered ledger (%d users) differs from pre-crash (%d users)", len(got), len(spent))
	}
	w.out.count(2)
	return nil
}

// runIngest is the untraced run of an ingest workload.
func runIngest(w *ingestWorkload, o options) error {
	defer w.disconnect(false)
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	out := w.out
	yard, err := newYardstick()
	if err != nil {
		return err
	}
	defer yard.close()
	var warm passStats
	setupS, err := timeSetUps(o, yard, func() (err error) {
		if err = w.disconnect(false); err == nil {
			warm, err = w.setUp(o.seed)
		}
		return err
	})
	if err != nil {
		return err
	}
	out.count(warm.ops())

	// Pass 0's estimate against the single-threaded reference.
	ref, err := referenceEstimate(w.pop, w.pop.entries, tenantBuckets(w.pop, w.users))
	if err != nil {
		return err
	}
	if err := matchesReference(&warm.estimate, ref); err != nil {
		out.fail("pass 0: %v", err)
	}
	// The timed passes write request bodies only. Letting go of the decoded
	// population — a million pointers the collector's garbage collections
	// would otherwise mark again and again — keeps the benchmark's own heap
	// out of the measured cost.
	w.pop.entries = nil
	for i := range w.reqs {
		w.reqs[i].batches = nil
	}
	runtime.GC()

	mem0 := readMem()
	var passes []passStats
	start := time.Now()
	for p := 1; p <= maxPasses; p++ {
		st, err := w.pass("p"+strconv.Itoa(p), p)
		if err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		out.count(st.ops())
		passes = append(passes, st)
		if err := yard.sampleN(yardPerPass); err != nil {
			return err
		}
		if o.smoke || p >= minPasses && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	mem1 := readMem()
	if w.wal {
		if err := w.recoveryCheck(); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
	}

	out.aggregate(setupS, passSeries{
		rate: column(passes, passStats.rate),
		p50:  column(passes, func(s passStats) float64 { return quantile(s.latMs, 0.5) }),
		p95:  column(passes, func(s passStats) float64 { return quantile(s.latMs, 0.95) }),
		est:  column(passes, func(s passStats) float64 { return s.estimateS * 1e3 / (estimatesPerPass / senders) }),
		cpu:  column(passes, func(s passStats) float64 { return s.cpuS / float64(s.reports) * 1e6 }),
		heap: column(passes, func(s passStats) float64 { return s.heapMB }),
		wall: column(passes, func(s passStats) float64 { return s.ingestS }),
	}, yard)
	out.process(mem0, mem1, sum(column(passes, func(s passStats) float64 { return float64(s.reports) })))
	out.notef("passes %d (warm-up excluded), %d requests and %d estimates per pass, %d reports per pass",
		len(passes), len(passes[0].latMs), len(passes[0].estMs), passes[0].reports)
	return nil
}
