package core

import (
	"math"

	"repro/internal/emf"
	"repro/internal/stats"
)

// HistCollection is the sufficient statistic of a collection for the
// estimator: one output-bucket histogram per group (at whatever resolution
// d′ the histogram was accumulated) plus the exact per-group report sums.
// The streaming engine (internal/stream) maintains these incrementally so
// an estimate never rescans raw reports; Estimate itself reduces a raw
// Collection to the same statistic. Feeding either path the same reports
// at the same d′ yields identical estimates (see TestEstimateHistEquivalence).
type HistCollection struct {
	// Counts[t][i] is the number of group-t reports in output bucket i.
	// len(Counts[t]) fixes the group's d′; the input resolution follows via
	// emf.InputBuckets exactly as in the batch path.
	Counts [][]float64
	// Sums[t] is Σ of group t's raw report values. The mean pipeline uses
	// it for the poison-mass correction (Eq. 13); the SW pipeline reads the
	// mean off the reconstructed histogram and ignores it.
	Sums []float64
}

// outCenters returns the output-bucket midpoints of a transform matrix —
// the value each histogram count stands in for.
func outCenters(m *emf.Matrix) []float64 {
	c := make([]float64, m.DPrime)
	for i := range c {
		c[i] = m.OutCenter(i)
	}
	return c
}

// PessimisticOHist is Theorem 2's pessimistic mean over a histogram: the
// largest (smallest, when the suspected poisoned side is left)
// ⌈γsup·N⌉ reports are removed — fractionally within the boundary bucket —
// and the remaining mass is averaged at bucket centers. It matches
// PessimisticO on the underlying reports up to one bucket width, without
// needing the sorted raw values the streaming collector no longer stores.
func PessimisticOHist(counts []float64, centers []float64, gammaSup float64, poisonedRight bool) float64 {
	n := stats.Sum(counts)
	if n <= 0 {
		return 0
	}
	if gammaSup <= 0 {
		gammaSup = 0.5
	}
	if gammaSup >= 1 {
		gammaSup = 1 - 1e-9
	}
	cut := math.Ceil(gammaSup * n)
	if cut >= n {
		cut = n - 1
	}
	keep := n - cut
	var sum, kept float64
	if poisonedRight {
		for i := 0; i < len(counts) && kept < keep; i++ {
			c := math.Min(counts[i], keep-kept)
			sum += c * centers[i]
			kept += c
		}
	} else {
		for i := len(counts) - 1; i >= 0 && kept < keep; i-- {
			c := math.Min(counts[i], keep-kept)
			sum += c * centers[i]
			kept += c
		}
	}
	if kept <= 0 {
		return 0
	}
	return sum / kept
}

// trimHistTop removes the top frac of a histogram's mass (fractionally
// within the boundary bucket) — the histogram analogue of discarding the
// largest quantile of raw reports before the SW pessimistic-O′ EMS fit.
func trimHistTop(counts []float64, frac float64) []float64 {
	n := stats.Sum(counts)
	trimmed := append([]float64(nil), counts...)
	drop := frac * n
	for i := len(trimmed) - 1; i >= 0 && drop > 0; i-- {
		c := math.Min(trimmed[i], drop)
		trimmed[i] -= c
		drop -= c
	}
	return trimmed
}
