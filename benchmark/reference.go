package main

import (
	"fmt"
	"math"
)

// refTol is how far a collector estimate may sit from the reference: the
// histograms are identical, only the order of the float sums differs.
const refTol = 1e-9

// tenantBuckets is the per-group histogram resolution a stream tenant
// expecting `expected` users picks: the paper's rule on the report volume
// of each equal-sized group (K categories for frequency tasks).
func tenantBuckets(p *population, expected int) []int {
	h := len(p.groups)
	out := make([]int, h)
	for g, grp := range p.groups {
		out[g] = p.sp.K
		if out[g] == 0 {
			out[g] = outputBuckets(((g+1)*expected/h - g*expected/h) * grp.Reports)
		}
	}
	return out
}

// referenceEstimate is the single-threaded reference computation every
// run is checked against: the entries are discretized into per-group
// histograms of the given resolutions and estimated in one EstimateHist
// call — no wire, no shards, no ledger.
func referenceEstimate(p *population, entries []entry, buckets []int) (*result, error) {
	hc, err := referenceHistograms(p, entries, buckets)
	if err != nil {
		return nil, err
	}
	return estimateHist(p.est, hc)
}

// referenceHistograms discretizes entries into per-group histograms with
// exact report sums, one report at a time.
func referenceHistograms(p *population, entries []entry, buckets []int) (*histograms, error) {
	h := len(p.groups)
	hc := &histograms{Counts: make([][]float64, h), Sums: make([]float64, h)}
	lo := make([]float64, h)
	inv := make([]float64, h)
	for g := range p.groups {
		hc.Counts[g] = make([]float64, buckets[g])
		if p.sp.K > 0 {
			continue
		}
		dlo, dhi, err := outputDomain(p.est, g)
		if err != nil {
			return nil, err
		}
		lo[g], inv[g] = dlo, 1/((dhi-dlo)/float64(buckets[g]))
	}
	for _, e := range entries {
		counts := hc.Counts[e.Group]
		for _, v := range e.Values {
			i := int(v)
			if p.sp.K == 0 {
				i = min(int((v-lo[e.Group])*inv[e.Group]), len(counts)-1)
			}
			counts[i]++
			hc.Sums[e.Group] += v
		}
	}
	return hc, nil
}

// matchesReference compares a served estimate with the reference.
func matchesReference(got *estimateResponse, want *result) error {
	if d := math.Abs(got.Mean - want.Mean); !(d <= refTol) {
		return fmt.Errorf("mean %v differs from reference %v by %g", got.Mean, want.Mean, d)
	}
	if d := math.Abs(got.Gamma - want.Gamma); !(d <= refTol) {
		return fmt.Errorf("gamma %v differs from reference %v by %g", got.Gamma, want.Gamma, d)
	}
	if len(got.Freqs) != len(want.Freqs) {
		return fmt.Errorf("%d frequencies, reference has %d", len(got.Freqs), len(want.Freqs))
	}
	for i := range want.Freqs {
		if d := math.Abs(got.Freqs[i] - want.Freqs[i]); !(d <= refTol) {
			return fmt.Errorf("freq[%d] %v differs from reference %v", i, got.Freqs[i], want.Freqs[i])
		}
	}
	return nil
}
