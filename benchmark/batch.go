package main

import (
	"fmt"
	"math"
	"time"
)

// Shape of paper_batch: the paper's default cell (ε = 1, ε0 = 1/16,
// N = 200 000, γ = 0.25 biased attack on [C/2, C]) collected once per
// trial and estimated with all three schemes.
const (
	batchUsers      = 200_000
	batchSmokeUsers = 20_000
	batchGamma      = 0.25
	batchWarmTrials = 12
	trialsPerPass   = 8 // short passes: more of them come through without a disturbed trial
	minBatchPasses  = 6
)

// CEMF* mean-squared error over a run's trials must sit inside this band:
// a third of and three times the 0.8e-3…1.2e-3 that twenty seeds of about
// 200 trials each measured at the default cell. Outside it the estimator is
// broken or the workload is not the one described. (BENCHMARK.json's schema
// has no field for the band, so it lives here.)
const (
	batchMSELo = 3e-4
	batchMSEHi = 3e-3
)

var batchSchemes = []string{"emf", "emfstar", "cemfstar"}

// batchWorkload is the collector-free researcher's workload.
type batchWorkload struct {
	users    int
	values   []float64
	trueMean float64
	ests     []estimator // one per scheme, sharing every collection
	reports  int         // reports per trial
	last     *collection // kept referenced: what live_heap_mb retains
}

func (b *batchWorkload) prepare(seed uint64) error {
	r := newRand(seed, 0)
	b.values = make([]float64, b.users)
	var s float64
	for i := range b.values {
		b.values[i] = honestLo + (honestHi-honestLo)*r.Float64()
		s += b.values[i]
	}
	b.trueMean = s / float64(b.users)
	b.ests = b.ests[:0]
	for _, scheme := range batchSchemes {
		sp := meanSpec(scheme, 1, 1.0/16, b.users)
		sp.Serve = nil
		est, err := buildEstimator(sp)
		if err != nil {
			return err
		}
		b.ests = append(b.ests, est)
	}
	return nil
}

// trialStats is one trial: collect once, estimate three times.
type trialStats struct {
	collectMs  float64
	estimateMs [3]float64
	totalMs    float64
	sqErr      float64 // CEMF* squared error
	// mean and gamma are each scheme's estimate; the results themselves
	// (which carry the EM fits) are not retained across trials.
	mean, gamma [3]float64
}

func (b *batchWorkload) trial(seed, n uint64) (trialStats, error) {
	var st trialStats
	t0 := time.Now()
	col, err := collect(b.ests[0], newRand(seed, n+1), b.values, batchGamma)
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	st.collectMs = ms(t1.Sub(t0))
	for i, est := range b.ests {
		s := time.Now()
		res, err := estimateRaw(est, col)
		if err != nil {
			return st, fmt.Errorf("%s: %w", batchSchemes[i], err)
		}
		st.estimateMs[i] = ms(time.Since(s))
		st.mean[i], st.gamma[i] = res.Mean, res.Gamma
	}
	st.totalMs = ms(time.Since(t0))
	st.sqErr = math.Pow(st.mean[2]-b.trueMean, 2)
	b.last = col
	b.reports = 0
	for _, g := range col.Groups {
		b.reports += len(g)
	}
	return st, nil
}

// referenceCheck requires the raw-collection estimate of every scheme to
// equal the estimate over the same reports discretized into histograms by
// the benchmark's own single-threaded reference.
func (b *batchWorkload) referenceCheck(st trialStats) error {
	for i, est := range b.ests {
		pop, hist := b.lastAsPopulation(est)
		ref, err := referenceEstimate(pop, pop.entries, hist)
		if err != nil {
			return err
		}
		got := estimateResponse{Mean: st.mean[i], Gamma: st.gamma[i]}
		if err := matchesReference(&got, ref); err != nil {
			return fmt.Errorf("%s: %w", batchSchemes[i], err)
		}
	}
	return nil
}

// lastAsPopulation presents the last raw collection as a population of
// one pseudo-user per group, with the histogram resolutions the batch
// path picks for it — the form the reference and the solver probes take.
func (b *batchWorkload) lastAsPopulation(est estimator) (*population, []int) {
	pop := &population{sp: est.Spec(), est: est, groups: est.Groups()}
	buckets := make([]int, len(pop.groups))
	for g := range pop.groups {
		pop.entries = append(pop.entries, entry{Group: g, Values: b.last.Groups[g]})
		buckets[g] = outputBuckets(len(b.last.Groups[g]))
	}
	return pop, buckets
}

// batchPass is trialsPerPass consecutive trials.
type batchPass struct {
	trials  []trialStats
	wallS   float64
	cpuS    float64
	reports int
}

func (b *batchWorkload) pass(seed, first uint64, n int) (batchPass, error) {
	var p batchPass
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st, err := b.trial(seed, first+uint64(i))
		if err != nil {
			return p, err
		}
		p.trials = append(p.trials, st)
		p.reports += b.reports
	}
	p.wallS = time.Since(t0).Seconds()
	p.cpuS = (cpuTime() - cpu0).Seconds()
	return p, nil
}

func runBatch(o options, out *outcome) error {
	b := &batchWorkload{users: batchUsers}
	warmTrials, perPass := batchWarmTrials, trialsPerPass
	if o.smoke {
		b.users, warmTrials, perPass = batchSmokeUsers, 1, 2
	}
	yard, err := newYardstick()
	if err != nil {
		return err
	}
	defer yard.close()
	var warm batchPass
	setupS, err := timeSetUps(o, yard, func() (err error) {
		if err = b.prepare(o.seed); err == nil {
			warm, err = b.pass(o.seed, 1<<40, warmTrials)
		}
		return err
	})
	if err != nil {
		return err
	}
	out.count(warmTrials)
	if err := b.referenceCheck(warm.trials[len(warm.trials)-1]); err != nil {
		out.fail("warm-up trial: %v", err)
	}

	mem0 := readMem()
	var passes []batchPass
	var heap []float64
	start := time.Now()
	for p := 0; p < maxPasses; p++ {
		bp, err := b.pass(o.seed, uint64(p*perPass), perPass)
		if err != nil {
			return fmt.Errorf("pass %d: %w", p+1, err)
		}
		out.count(perPass)
		passes = append(passes, bp)
		heap = append(heap, liveHeapMB()) // b.last still referenced
		if err := yard.sampleN(yardPerPass); err != nil {
			return err
		}
		if o.smoke || p+1 >= minBatchPasses && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	mem1 := readMem()

	var sq []float64
	for _, p := range passes {
		for _, t := range p.trials {
			sq = append(sq, t.sqErr)
		}
	}
	mse := sum(sq) / float64(len(sq))
	if !(mse >= batchMSELo && mse <= batchMSEHi) && !o.smoke { // the band is for N = 200 000
		out.fail("CEMF* MSE %.3g over %d trials is outside [%g, %g]", mse, len(sq), batchMSELo, batchMSEHi)
	}

	trialMs := func(q float64) func(batchPass) float64 {
		return func(p batchPass) float64 {
			return quantile(column(p.trials, func(t trialStats) float64 { return t.totalMs }), q)
		}
	}
	out.aggregate(setupS, passSeries{
		rate: column(passes, func(p batchPass) float64 { return float64(p.reports) / p.wallS }),
		p50:  column(passes, trialMs(0.5)),
		p95:  column(passes, trialMs(0.95)),
		est: column(passes, func(p batchPass) float64 {
			return quantile(column(p.trials, func(t trialStats) float64 { return t.estimateMs[2] }), 0.5)
		}),
		cpu:  column(passes, func(p batchPass) float64 { return p.cpuS / float64(p.reports) * 1e6 }),
		heap: heap,
		wall: column(passes, func(p batchPass) float64 { return p.wallS }),
	}, yard)
	out.process(mem0, mem1, sum(column(passes, func(p batchPass) float64 { return float64(p.reports) })))
	out.notef("passes %d of %d trials (%d warm-up trials excluded), %d reports per trial",
		len(passes), perPass, warmTrials, b.reports)
	out.notef("CEMF* MSE %.3g over %d trials (band [%g, %g])", mse, len(sq), batchMSELo, batchMSEHi)
	return nil
}
