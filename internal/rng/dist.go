package rng

import (
	"math"
	"math/rand/v2"
)

// Uniform samples uniformly from [lo, hi).
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal samples from a Gaussian with the given mean and standard deviation.
func Normal(r *rand.Rand, mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// TruncNormal samples a Gaussian restricted to [lo, hi] by rejection. For
// the parameter regimes in this repository the acceptance rate is high; a
// clamp guards the pathological case where the interval carries almost no
// mass.
func TruncNormal(r *rand.Rand, mu, sigma, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 1000; i++ {
		x := Normal(r, mu, sigma)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mu))
}

// Gamma samples from a Gamma distribution with shape k and scale 1 using
// the Marsaglia–Tsang squeeze method; shapes below one are boosted via the
// standard U^{1/k} transformation.
func Gamma(r *rand.Rand, k float64) float64 {
	if k <= 0 {
		panic("rng: Gamma shape must be positive")
	}
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^{1/k}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return Gamma(r, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta samples from a Beta(a, b) distribution via the Gamma ratio.
func Beta(r *rand.Rand, a, b float64) float64 {
	x := Gamma(r, a)
	y := Gamma(r, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n) via a partial Fisher–Yates shuffle. It panics if k > n.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
