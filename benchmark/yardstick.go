package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a fixed piece of work of the benchmark's own, shaped
// like the system under test — two closed-loop loopback HTTP connections
// into an in-process server whose handler checksums a 64 KiB body and
// folds its 4096 records into a sharded, locked, 8 MiB hash table — and
// sampled between the passes of every run. The shared 2-vCPU guest this
// benchmark runs on changes its own speed by 20–50 % for minutes at a time
// (CALIBRATION.md); whatever slows the collector then slows the yardstick
// about as much, so every time-based end-to-end metric is reported at the
// yardstick's nominal speed: multiplied by yardNominalMs over the fast
// quartile of the run's samples. It names no symbol of the repository and
// its inputs are the same whatever the seed.
const (
	yardNominalMs = 24.5 // one sample on the calibration machine at its quiet speed
	yardRequests  = 160  // closed-loop requests per sample, over both connections
	yardBodies    = 64
	yardBodyLen   = 64 << 10
	yardKeys      = 1 << 18
	yardSlots     = 1 << 19
	yardShards    = 16
	yardSetupN    = 3 // samples taken after each set-up, which setup_s is scaled by
	yardPerPass   = 2 // samples taken after every pass
)

type yardShard struct {
	mu   sync.Mutex
	keys []uint64
	vals []uint64
}

type yardstick struct {
	shards  [yardShards]yardShard
	bodies  [][]byte
	lens    [][]byte
	pool    sync.Pool
	hs      *http.Server
	done    chan struct{}
	conns   []*conn
	heapMB  float64   // what the yardstick itself keeps on the heap
	samples []float64 // ms per sample, in the order taken

	setupSamples int // how many of the first samples were taken between set-ups
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fold is the handler's work: one checksum over the body, one locked
// open-addressing update per 16-byte record.
func (y *yardstick) fold(body []byte) uint32 {
	sum := crc32.Checksum(body, castagnoli)
	for off := 0; off+16 <= len(body); off += 16 {
		key := binary.LittleEndian.Uint64(body[off:])
		h := key * 0x9E3779B97F4A7C15
		sh := &y.shards[h>>60]
		mask := uint64(len(sh.keys) - 1)
		i := (h >> 20) & mask
		sh.mu.Lock()
		for sh.keys[i] != key && sh.keys[i] != 0 {
			i = (i + 1) & mask
		}
		sh.keys[i] = key
		sh.vals[i] += binary.LittleEndian.Uint64(body[off+8:])
		sh.mu.Unlock()
	}
	return sum
}

func (y *yardstick) serve(w http.ResponseWriter, r *http.Request) {
	bp := y.pool.Get().(*[]byte)
	defer y.pool.Put(bp)
	if r.ContentLength < 0 || r.ContentLength > yardBodyLen {
		http.Error(w, "bad length", http.StatusBadRequest)
		return
	}
	buf := (*bp)[:r.ContentLength]
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, `{"crc":%d}`, y.fold(buf))
}

// newYardstick builds the table, the request bodies (from a fixed
// generator, not from the seed) and the server, and opens its connections.
func newYardstick() (*yardstick, error) {
	before := liveHeapMB()
	y := &yardstick{done: make(chan struct{})}
	for i := range y.shards {
		y.shards[i].keys = make([]uint64, yardSlots/yardShards)
		y.shards[i].vals = make([]uint64, yardSlots/yardShards)
	}
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	keys := make([]uint64, yardKeys)
	for i := range keys {
		keys[i] = next() | 1 // zero marks an empty slot
	}
	for b := 0; b < yardBodies; b++ {
		body := make([]byte, yardBodyLen)
		for off := 0; off+16 <= len(body); off += 16 {
			binary.LittleEndian.PutUint64(body[off:], keys[next()%yardKeys])
			binary.LittleEndian.PutUint64(body[off+8:], next()>>40)
		}
		y.bodies = append(y.bodies, body)
		y.lens = append(y.lens, newRequest(body, nil).lenLine)
	}
	y.pool.New = func() any { b := make([]byte, yardBodyLen); return &b }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y.hs = &http.Server{Handler: http.HandlerFunc(y.serve)}
	go func() {
		defer close(y.done)
		_ = y.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	for i := 0; i < senders; i++ {
		c, err := dial(ln.Addr().String())
		if err != nil {
			y.close()
			return nil, err
		}
		y.conns = append(y.conns, c)
	}
	// Touch every body once so the table is full and the pool warm before
	// the first sample, then see what all of it keeps alive.
	if _, err := y.run(2 * yardBodies); err != nil {
		y.close()
		return nil, err
	}
	keys = nil // only the bodies and the table stay
	y.heapMB = liveHeapMB() - before
	return y, nil
}

func (y *yardstick) close() {
	for _, c := range y.conns {
		c.close()
	}
	_ = y.hs.Close()
	<-y.done
}

// run sends n requests closed loop over the connections and returns the
// wall time in ms.
func (y *yardstick) run(n int) (float64, error) {
	hd := head("POST", "/yardstick", "application/octet-stream")
	errs := make([]error, len(y.conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, c := range y.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				status, body, err := c.roundTrip(hd, y.lens[i%yardBodies], y.bodies[i%yardBodies])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("yardstick request %d: HTTP %d: %s", i, status, body)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)), nil
}

// sample takes one reading and keeps it. Every body is sent once untimed
// first: a pass of the workload evicts the yardstick's table and bodies
// from the caches, and a reading taken cold is a quarter slower than one
// taken after another reading.
func (y *yardstick) sample() error {
	if _, err := y.run(yardBodies); err != nil {
		return err
	}
	v, err := y.run(yardRequests)
	if err != nil {
		return err
	}
	y.samples = append(y.samples, v)
	return nil
}

// sampleN takes n readings back to back.
func (y *yardstick) sampleN(n int) error {
	for i := 0; i < n; i++ {
		if err := y.sample(); err != nil {
			return err
		}
	}
	return nil
}

// speed is how fast the machine ran during the readings, as a multiple of
// the nominal speed: above 1 on a faster machine, below 1 on a disturbed
// one. Interference only ever adds time, so the fast quartile stands for
// the level the passes' own fast quartiles were measured at.
func speed(samples []float64) float64 {
	return yardNominalMs / fastQuartile(samples, false)
}

// setupSpeed is the machine speed while the run was setting up, runSpeed
// while it measured.
func (y *yardstick) setupSpeed() float64 { return speed(y.samples[:y.setupSamples]) }

func (y *yardstick) runSpeed() float64 { return speed(y.samples[y.setupSamples:]) }
