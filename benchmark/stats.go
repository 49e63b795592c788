package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified. An empty
// sample yields NaN, which fails every check it reaches.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fastQuartile aggregates one per-pass statistic across the passes of a
// run. Interference on a shared box only ever adds time, so the quartile
// on the fast side (p25 of a cost, p75 of a rate) estimates the
// undisturbed level far more repeatably than the median does.
func fastQuartile(perPass []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(perPass, 0.75)
	}
	return quantile(perPass, 0.25)
}

// slowFrac is the share of passes more than 1.25× slower than the fast
// quartile — printed beside every run so a bimodal run is visible.
func slowFrac(perPassCost []float64) float64 {
	if len(perPassCost) == 0 {
		return 0
	}
	limit := 1.25 * fastQuartile(perPassCost, false)
	n := 0
	for _, x := range perPassCost {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(perPassCost))
}

// column extracts one per-pass statistic.
func column[T any](rows []T, f func(T) float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f(r)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
