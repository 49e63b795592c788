package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shape of serve_mixed: two tenants on one collector, ingest on one
// connection and reads, rotations and scrapes on another. A run is
// stretches of identical work, each on a fresh pair of tenants (a user's
// budget is single-use): connection A sends the whole request list closed
// loop while connection B works through a fixed schedule until A is done.
//
// The write side is closed loop because an open loop at a fraction of
// saturation leaves both vCPUs of this guest idle most of the time, and
// what it then measures is how long the hypervisor takes to wake a halted
// vCPU: on identical code its ack latencies and live-estimate times moved
// by 15–25 % from run to run (CALIBRATION.md). With the writer saturating
// its connection the processors stay awake and the numbers are the
// collector's.
const (
	serveUsers       = 400_000 // users in the request list, both tenants: about 1.1 s of ingest
	serveUsersPerReq = 100     // one frame per request
	serveFreqEvery   = 5       // every 5th request goes to the freq tenant (80/20)
	serveSpan        = 4       // sliding window of the mean tenant, in epochs
	serveK           = 15
	serveStretch     = 2 * time.Second // how far the read schedule reaches; a stretch ends when the list is sent
	serveSmokeUsers  = 80_000          // long enough for two live estimates
	serveSmokeTime   = time.Second
	rotateEvery      = 300 * time.Millisecond
	liveEvery        = 150 * time.Millisecond
	cachedEvery      = 30 * time.Millisecond
	maxFinalLag      = 100 * time.Millisecond
	refRequests      = 500 // mean-tenant requests the reference tenant is fed
	minStretches     = 6
)

// serveWorkload holds the pre-encoded request list.
type serveWorkload struct {
	users      int
	stretch    time.Duration
	mean, freq *population
	reqs       []request // in send order; every serveFreqEvery-th is a freq request
	col        *collector
}

func (s *serveWorkload) isFreq(i int) bool { return i%serveFreqEvery == serveFreqEvery-1 }

// serveSpecs are the two tenants, their histogram resolutions sized to
// the users a stretch can bring.
func serveSpecs(users int) (mean, freq spec) {
	mean = meanSpec("emfstar", 1, 1.0/16, users*(serveFreqEvery-1)/serveFreqEvery)
	mean.Serve.Window, mean.Serve.Span, mean.Serve.Warm = "sliding", serveSpan, true
	freq = freqSpec(serveK, users/serveFreqEvery)
	return mean, freq
}

// prepare generates both populations and encodes one request per 100
// users.
func (s *serveWorkload) prepare(seed uint64) error {
	meanSp, freqSp := serveSpecs(s.users)
	n := s.users / serveUsersPerReq
	nFreq := n / serveFreqEvery
	var err error
	if s.mean, err = genPopulation(meanSp, seed, 0, (n-nFreq)*serveUsersPerReq, ingestGamma); err != nil {
		return err
	}
	if s.freq, err = genPopulation(freqSp, seed, 1, nFreq*serveUsersPerReq, ingestGamma); err != nil {
		return err
	}
	mr, err := encodeFrames(s.mean.entries, serveUsersPerReq, 1)
	if err != nil {
		return err
	}
	fr, err := encodeFrames(s.freq.entries, serveUsersPerReq, 1)
	if err != nil {
		return err
	}
	s.reqs = s.reqs[:0]
	for i := 0; i < n; i++ {
		if s.isFreq(i) {
			s.reqs, fr = append(s.reqs, fr[0]), fr[1:]
		} else {
			s.reqs, mr = append(s.reqs, mr[0]), mr[1:]
		}
	}
	return nil
}

// readKind is one kind of operation on the read connection.
type readKind int

const (
	opRotateMean readKind = iota
	opRotateFreq
	opLive
	opCachedMean
	opCachedFreq
	opScrape
)

type readOp struct {
	due  time.Duration
	kind readKind
}

// readSchedule lists connection B's operations over a stretch of length
// d, by due time.
func readSchedule(d time.Duration) []readOp {
	var ops []readOp
	every := func(period, first time.Duration, kinds ...readKind) {
		for i, t := 0, first; t < d; i, t = i+1, t+period {
			ops = append(ops, readOp{t, kinds[i%len(kinds)]})
		}
	}
	every(rotateEvery, rotateEvery, opRotateMean)
	every(rotateEvery, rotateEvery+time.Millisecond, opRotateFreq)
	// Live estimates run half-way between the rotations, which would
	// otherwise make them wait: estimate_ms is the estimate's own time
	// beside ingest, not its place in a queue of reads.
	every(liveEvery, liveEvery/2, opLive)
	every(cachedEvery, rotateEvery+13*time.Millisecond, opCachedMean, opCachedFreq)
	ops = append(ops, readOp{3*liveEvery + liveEvery/4, opScrape})
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// serveStats is what one stretch measured.
type serveStats struct {
	elapsed  time.Duration // start → last ingest ack
	sent     int           // ingest requests acked
	reports  int
	users    [2]int       // acked users per tenant (mean, freq)
	latMs    []float64    // per ingest request, send → ack
	lateMs   []float64    // how late the read generator itself woke
	readMs   [6][]float64 // per read kind, done − chargedFrom
	cpuS     float64
	finalLag time.Duration // last read's completion − its due time
	readOps  int
	heapMB   float64
}

func (st *serveStats) ops() int { return st.sent + st.readOps }

// chargedFrom is the instant a scheduled operation's latency counts from.
// When the previous operation on the connection was still running at the
// due time, that is the due time: the collector imposed the wait, and
// timing from the send would hide it (coordinated omission). When the
// connection was free and the generator merely woke late from its sleep —
// about a millisecond on this guest, more than most reads take — it is
// the send time: that lateness is the generator's, reported as
// gen.lateness_p95_ms and not charged to the collector.
func chargedFrom(due, sent, prevDone time.Time) time.Time {
	if prevDone.After(due) || !sent.After(due) {
		return due
	}
	return sent
}

// drive runs one stretch against the tenants meanT and freqT: connection A
// sends the request list closed loop, beginning at request first and
// wrapping round (giving up after d); connection B works through the read
// schedule until A is done. A different first puts different reports into
// each epoch, so the stretches of a run re-estimate different windows: the
// EM iteration count moves with the data, and the run averages over it.
func (s *serveWorkload) drive(d time.Duration, meanT, freqT string, first int) (*serveStats, error) {
	a, err := dial(s.col.addr)
	if err != nil {
		return nil, err
	}
	defer a.close()
	b, err := dial(s.col.addr)
	if err != nil {
		return nil, err
	}
	defer b.close()

	st := &serveStats{}
	reads := readSchedule(d)
	heads := [2][]byte{head("POST", routeIngest(meanT), ctFrame), head("POST", routeIngest(freqT), ctFrame)}
	readHeads := [6][]byte{
		opRotateMean: head("POST", routeRotate(meanT), ""),
		opRotateFreq: head("POST", routeRotate(freqT), ""),
		opLive:       head("GET", routeLive(meanT), ""),
		opCachedMean: head("GET", routeEstimate(meanT), ""),
		opCachedFreq: head("GET", routeEstimate(freqT), ""),
		opScrape:     head("GET", routeMetrics, ""),
	}
	noBody := []byte("Content-Length: 0\r\n\r\n")
	var errA, errB error
	var stop atomic.Bool // set when A is done or either side failed
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for n := range s.reqs {
			i := (first + n) % len(s.reqs)
			rq := &s.reqs[i]
			sent := time.Now()
			if sent.Sub(t0) >= d || stop.Load() {
				return
			}
			which := 0
			if s.isFreq(i) {
				which = 1
			}
			status, body, err := a.roundTrip(heads[which], rq.lenLine, rq.body)
			done := time.Now()
			if err == nil && (status != 200 || !bytes.HasPrefix(body, rq.ack)) {
				err = fmt.Errorf("ingest %d of %d reports: HTTP %d: %s", i, rq.reports, status, body)
			}
			if err != nil {
				errA = err
				return
			}
			st.latMs = append(st.latMs, ms(done.Sub(sent)))
			st.sent++
			st.reports += rq.reports
			st.users[which] += serveUsersPerReq
			st.elapsed = done.Sub(t0)
		}
	}()
	var readMs [6][]float64
	var lateMs []float64
	var finalLag time.Duration
	readOps := 0
	go func() {
		defer wg.Done()
		var epoch [2]uint64 // newest cached-estimate epoch seen per tenant
		var prevDone time.Time
		for _, op := range reads {
			due := t0.Add(op.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if stop.Load() {
				return
			}
			sent := time.Now()
			status, body, err := b.roundTrip(readHeads[op.kind], noBody)
			done := time.Now()
			from := chargedFrom(due, sent, prevDone)
			readMs[op.kind] = append(readMs[op.kind], ms(done.Sub(from)))
			lateMs = append(lateMs, ms(from.Sub(due)))
			finalLag = done.Sub(due)
			prevDone = done
			if err == nil && status != 200 {
				err = fmt.Errorf("read op %d at %v: HTTP %d: %s", op.kind, op.due, status, body)
			}
			if err == nil && (op.kind == opCachedMean || op.kind == opCachedFreq) {
				var e estimateResponse
				if err = json.Unmarshal(body, &e); err == nil {
					t := int(op.kind - opCachedMean)
					if e.Epoch < epoch[t] {
						err = fmt.Errorf("cached estimate went back from epoch %d to %d", epoch[t], e.Epoch)
					}
					epoch[t] = e.Epoch
				}
			}
			if err != nil {
				errB = err
				stop.Store(true)
				return
			}
			readOps++
		}
	}()
	wg.Wait()
	st.cpuS = (cpuTime() - cpu0).Seconds()
	st.readMs, st.lateMs, st.finalLag, st.readOps = readMs, lateMs, finalLag, readOps
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	return st, nil
}

// reporters reads how many users of a tenant have spent budget.
func reporters(c *conn, tenant string) (int, error) {
	body, err := c.expect(200, "GET", routeStatus(tenant), "", nil)
	if err != nil {
		return 0, err
	}
	var st statusResponse
	err = json.Unmarshal(body, &st)
	return st.Reporters, err
}

// stretchOn runs stretch number k on fresh tenants: create, drive, read
// the live heap with both still alive, check what the tenants charged
// against what was acked, delete.
func (s *serveWorkload) stretchOn(c *conn, k int, out *outcome) (*serveStats, error) {
	tag := fmt.Sprint(k)
	names := [2]string{"mean-" + tag, "freq-" + tag}
	for i, sp := range []spec{s.mean.sp, s.freq.sp} {
		if _, err := c.expect(201, "POST", routeTenants, ctJSON, tenantCreateBody(names[i], sp)); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	st, err := s.drive(s.stretch, names[0], names[1], k%skipParts*len(s.reqs)/skipParts)
	if err != nil {
		return nil, err
	}
	st.heapMB = liveHeapMB()
	for i, t := range names {
		got, err := reporters(c, t)
		if err != nil {
			return nil, err
		}
		if got != st.users[i] {
			out.fail("tenant %s charged %d users, %d were acked", t, got, st.users[i])
		}
	}
	// The schedule's last read far behind its due time means the reads
	// queued up: the collector did not keep up with them beside the ingest.
	if st.finalLag > maxFinalLag {
		out.fail("stretch %d: the last read finished %v after its due time", k, st.finalLag)
	}
	for _, t := range names {
		if _, err := c.expect(204, "DELETE", routeTenant(t), "", nil); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	return st, nil
}

// setUp is the set-up: inputs, collector, and a warm-up stretch.
func (s *serveWorkload) setUp(seed uint64, out *outcome) (ops int, err error) {
	if err := s.prepare(seed); err != nil {
		return 0, err
	}
	if s.col, err = bootCollector(""); err != nil {
		return 0, err
	}
	c, err := dial(s.col.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	st, err := s.stretchOn(c, 0, out)
	if err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return st.ops(), nil
}

func (s *serveWorkload) shutDown() {
	if s.col != nil {
		_ = s.col.close(false)
		s.col = nil
	}
}

func newServeWorkload(o options) *serveWorkload {
	if o.smoke {
		return &serveWorkload{users: serveSmokeUsers, stretch: serveSmokeTime}
	}
	return &serveWorkload{users: serveUsers, stretch: serveStretch}
}

func runServe(o options, out *outcome) error {
	s := newServeWorkload(o)
	defer s.shutDown()
	yard, err := newYardstick()
	if err != nil {
		return err
	}
	defer yard.close()
	var warmOps int
	setupS, err := timeSetUps(o, yard, func() (err error) {
		s.shutDown()
		warmOps, err = s.setUp(o.seed, out)
		return err
	})
	if err != nil {
		return err
	}
	out.count(warmOps)

	c, err := dial(s.col.addr)
	if err != nil {
		return err
	}
	defer c.close()
	// A fresh tenant fed the mean tenant's first requests, whole, against
	// the single-threaded reference. After it the stretches write request
	// bodies only; letting go of the decoded populations keeps their
	// pointers out of the collector's garbage collections.
	if err := s.referenceCheck(c, out); err != nil {
		return err
	}
	s.mean.entries, s.freq.entries = nil, nil
	for i := range s.reqs {
		s.reqs[i].batches = nil
	}
	runtime.GC()

	mem0 := readMem()
	var segs []*serveStats
	start := time.Now()
	for k := 1; k <= maxPasses; k++ {
		st, err := s.stretchOn(c, k, out)
		if err != nil {
			return fmt.Errorf("stretch %d: %w", k, err)
		}
		out.count(st.ops())
		segs = append(segs, st)
		if err := yard.sampleN(yardPerPass); err != nil {
			return err
		}
		if o.smoke || k >= minStretches && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	mem1 := readMem()

	var late, lat []float64
	var reads [6][]float64
	var reports float64
	for _, st := range segs {
		late = append(late, st.lateMs...)
		lat = append(lat, st.latMs...)
		reports += float64(st.reports)
		for k := range st.readMs {
			reads[k] = append(reads[k], st.readMs[k]...)
		}
	}
	out.aggregate(setupS, passSeries{
		rate: column(segs, func(st *serveStats) float64 { return float64(st.reports) / st.elapsed.Seconds() }),
		p50:  column(segs, func(st *serveStats) float64 { return quantile(st.latMs, 0.5) }),
		p95:  column(segs, func(st *serveStats) float64 { return quantile(st.latMs, 0.95) }),
		est:  column(segs, func(st *serveStats) float64 { return quantile(st.readMs[opLive], 0.5) }), // every stretch outlasts the first live estimate
		cpu:  column(segs, func(st *serveStats) float64 { return st.cpuS / float64(st.reports) * 1e6 }),
		heap: column(segs, func(st *serveStats) float64 { return st.heapMB }),
		wall: column(segs, func(st *serveStats) float64 { return st.elapsed.Seconds() / float64(st.reports) }),
	}, yard)
	out.process(mem0, mem1, reports)
	out.set("gen.lateness_p95_ms", quantile(late, 0.95))
	out.notef("%d stretches on fresh tenant pairs (read schedule of %v): %d ingest requests (%d per stretch at the median) and %d reads; read generator lateness p50 %.3f ms",
		len(segs), s.stretch, len(lat), int(quantile(column(segs, func(st *serveStats) float64 { return float64(st.sent) }), 0.5)),
		len(late), quantile(late, 0.5))
	out.notef("ingest ack latency over the whole run (ms): p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  (n %d)",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999), len(lat))
	out.notef("reads (ms, p50/p95, n): rotate-mean %s  rotate-freq %s  live %s  cached %s  scrape %s",
		triple(reads[opRotateMean]), triple(reads[opRotateFreq]), triple(reads[opLive]),
		triple(append(reads[opCachedMean], reads[opCachedFreq]...)), triple(reads[opScrape]))
	return nil
}

func triple(xs []float64) string {
	return fmt.Sprintf("%.3f/%.3f/%d", quantile(xs, 0.5), quantile(xs, 0.95), len(xs))
}

// referenceCheck compares a fresh tenant fed the mean tenant's first
// requests, whole, with the single-threaded reference — the pass-0 check
// of the ingest workloads on this workload's spec and wire.
func (s *serveWorkload) referenceCheck(c *conn, out *outcome) error {
	const tenant = "ref"
	sp := s.mean.sp
	if _, err := c.expect(201, "POST", routeTenants, ctJSON, tenantCreateBody(tenant, sp)); err != nil {
		return err
	}
	hd := head("POST", routeIngest(tenant), ctFrame)
	users := 0
	for i := 0; i < len(s.reqs) && users < refRequests*serveUsersPerReq; i++ {
		if s.isFreq(i) {
			continue
		}
		status, body, err := c.roundTrip(hd, s.reqs[i].lenLine, s.reqs[i].body)
		if err != nil || status != 200 {
			return fmt.Errorf("reference ingest: HTTP %d: %s: %v", status, body, err)
		}
		users += serveUsersPerReq
	}
	body, err := c.expect(200, "GET", routeLive(tenant), "", nil)
	if err != nil {
		return err
	}
	var got estimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	ref, err := referenceEstimate(s.mean, s.mean.entries[:users], tenantBuckets(s.mean, sp.Serve.ExpectedUsers))
	if err != nil {
		return err
	}
	if err := matchesReference(&got, ref); err != nil {
		out.fail("reference tenant: %v", err)
	}
	out.count(users/serveUsersPerReq + 1)
	_, err = c.expect(204, "DELETE", routeTenant(tenant), "", nil)
	return err
}
