// Package metrics is a zero-dependency metrics layer for the collector:
// atomic counters, gauges and fixed-bucket histograms, optionally grouped
// into labeled families, registered in a process-wide registry and
// exposed in the Prometheus text exposition format (version 0.0.4).
//
// The design rule is that the ingest hot path must stay allocation-free:
// every metric update is a handful of atomic operations on a pre-bound
// handle. Labeled families hash their label values exactly once, at bind
// time (Vec.With), and hand back a plain *Counter/*Gauge/*Histogram the
// hot path updates directly — recording a report is one atomic add, and
// observing a latency is three (bucket, count, sum). Scrape-time work
// (sorting children, formatting floats, computing derived gauges) happens
// in WriteTo, on the scraper's request, never on the ingest path.
//
// Metrics register into the package-wide Default registry at package
// init of the instrumented layer (transport, stream, store, emf), so one
// GET /metrics scrape covers the whole process. Registration panics on a
// duplicate or invalid name — both are programming errors caught by any
// test that links the package.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sync"
	"sync/atomic"
)

// nameRE validates metric and label names (the Prometheus charset).
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Float is a float64 updated with atomic operations — the building block
// histogram sums and gauges share.
type Float struct{ bits atomic.Uint64 }

// Add atomically adds delta.
func (f *Float) Add(delta float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Store atomically sets the value.
func (f *Float) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Load atomically reads the value.
func (f *Float) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing count. The zero value is ready to
// use; registered counters come from NewCounter or CounterVec.With.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
//
//dapvet:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//dapvet:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v Float }

// Set replaces the value.
//
//dapvet:hotpath
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
//
//dapvet:hotpath
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// SetBool sets 1 for true, 0 for false — the conventional encoding of a
// flag gauge.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Histogram counts observations into fixed buckets (cumulative at
// exposition time, per the Prometheus histogram contract) and tracks
// their running sum. Observe is lock-free: one atomic bucket increment,
// one count increment, one sum add.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     Float
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %v", bounds[i]))
		}
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation. The linear bound scan is deliberate:
// bucket lists are short (≤ ~16) and the scan is branch-predictable,
// beating a binary search at this size — and it allocates nothing.
//
//dapvet:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// desc is the identity of a registered family.
type desc struct {
	name, help, typ string
	labels          []string
}

// collector is one registered family: a description plus a snapshot
// function yielding its current samples.
type collector struct {
	d       desc
	samples func() []Sample
}

// Registry holds registered metric families and renders them in
// registration order. Use Default for the process-wide registry the
// /metrics endpoint serves.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]struct{}
	cols   []collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// def is the process-wide registry.
var def = NewRegistry()

// Default returns the process-wide registry that package-level
// constructors register into and GET /metrics serves.
func Default() *Registry { return def }

// register adds a family, panicking on duplicate or invalid names.
func (r *Registry) register(d desc, samples func() []Sample) {
	if !nameRE.MatchString(d.name) {
		panic("metrics: invalid metric name " + d.name)
	}
	for _, l := range d.labels {
		if !nameRE.MatchString(l) {
			panic("metrics: invalid label name " + l + " on " + d.name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.name]; dup {
		panic("metrics: duplicate metric name " + d.name)
	}
	r.byName[d.name] = struct{}{}
	r.cols = append(r.cols, collector{d: d, samples: samples})
}

// Counter registers and returns a new counter in r.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(desc{name: name, help: help, typ: "counter"}, func() []Sample {
		return []Sample{{Name: name, Value: float64(c.Value())}}
	})
	return c
}

// Gauge registers and returns a new gauge in r.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(desc{name: name, help: help, typ: "gauge"}, func() []Sample {
		return []Sample{{Name: name, Value: g.Value()}}
	})
	return g
}

// Histogram registers and returns a new histogram in r with the given
// strictly increasing upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(desc{name: name, help: help, typ: "histogram"}, func() []Sample {
		return histogramSamples(name, nil, nil, h)
	})
	return h
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return def.Counter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return def.Gauge(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return def.Histogram(name, help, bounds)
}

// histogramSamples renders one histogram as its exposition series:
// cumulative le-buckets, _sum and _count. labelNames/labelValues carry
// the owning vec's binding, nil for unlabeled histograms.
func histogramSamples(name string, labelNames, labelValues []string, h *Histogram) []Sample {
	out := make([]Sample, 0, len(h.buckets)+2)
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		out = append(out, Sample{
			Name:   name + "_bucket",
			Labels: labelMap(labelNames, labelValues, "le", le),
			Value:  float64(cum),
		})
	}
	out = append(out,
		Sample{Name: name + "_sum", Labels: labelMap(labelNames, labelValues), Value: h.Sum()},
		Sample{Name: name + "_count", Labels: labelMap(labelNames, labelValues), Value: float64(h.Count())},
	)
	return out
}

// labelMap builds a label map from parallel name/value slices plus
// optional extra pairs; nil when empty.
func labelMap(names, values []string, extra ...string) map[string]string {
	if len(names) == 0 && len(extra) == 0 {
		return nil
	}
	m := make(map[string]string, len(names)+len(extra)/2)
	for i, n := range names {
		m[n] = values[i]
	}
	for i := 0; i+1 < len(extra); i += 2 {
		m[extra[i]] = extra[i+1]
	}
	return m
}
