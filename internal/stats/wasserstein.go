package stats

import "math"

// Wasserstein1 computes the 1-Wasserstein (earth mover's) distance between
// two discrete distributions defined over the same equally spaced support
// with the given bucket width. Both inputs are normalized internally, so
// raw counts are accepted.
//
// For one-dimensional distributions on a common grid, W1 equals the L1
// distance between CDFs scaled by the grid spacing.
func Wasserstein1(p, q []float64, width float64) float64 {
	if len(p) != len(q) {
		panic("stats: Wasserstein1 length mismatch")
	}
	pn := Normalize(p)
	qn := Normalize(q)
	var cdfDiff, dist float64
	for i := range pn {
		cdfDiff += pn[i] - qn[i]
		dist += math.Abs(cdfDiff)
	}
	return dist * width
}
