package stats

import "math"

// Hist is a fixed-width histogram over [Lo, Hi] with len(Counts) buckets.
type Hist struct {
	Lo, Hi float64
	Counts []float64
}

// NewHist builds an empty histogram with the given support and bucket count.
// It panics if bins < 1 or the support is empty.
func NewHist(lo, hi float64, bins int) *Hist {
	if bins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram support must be non-empty")
	}
	return &Hist{Lo: lo, Hi: hi, Counts: make([]float64, bins)}
}

// Histogram counts values into bins over [lo, hi]; out-of-range values are
// clamped into the boundary buckets, matching how a collector discretizes a
// bounded perturbation domain.
func Histogram(values []float64, lo, hi float64, bins int) *Hist {
	h := NewHist(lo, hi, bins)
	for _, v := range values {
		h.Add(v)
	}
	return h
}

// Add counts a single value.
func (h *Hist) Add(v float64) {
	h.Counts[h.Bucket(v)]++
}

// Bucket returns the bucket index for value v, clamping out-of-range values.
func (h *Hist) Bucket(v float64) int {
	bins := len(h.Counts)
	w := (h.Hi - h.Lo) / float64(bins)
	i := int(math.Floor((v - h.Lo) / w))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	return i
}

// Normalized returns the counts normalized to sum to one. A zero histogram
// normalizes to the uniform distribution.
func (h *Hist) Normalized() []float64 {
	return Normalize(h.Counts)
}

// Normalize scales a non-negative vector to sum to one; an all-zero vector
// becomes uniform.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	total := Sum(xs)
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(xs))
		}
		return out
	}
	for i, x := range xs {
		out[i] = x / total
	}
	return out
}

// HistMean returns the probability-weighted mean of bucket centers for a
// (possibly unnormalized) histogram weight vector over the given centers.
func HistMean(weights, centers []float64) float64 {
	if len(weights) != len(centers) {
		panic("stats: HistMean length mismatch")
	}
	var num, den float64
	for i, w := range weights {
		num += w * centers[i]
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}
