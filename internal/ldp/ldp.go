// Package ldp defines the interfaces shared by the local differential
// privacy mechanisms in this repository (Piecewise, Square Wave, k-RR)
// and small helpers for reasoning about their output distributions.
//
// A mechanism perturbs a single user value; the collector only ever sees
// perturbed outputs. The EMF machinery in internal/emf builds transform
// matrices from the exact interval probabilities exposed here.
package ldp

import (
	"math"
	"math/rand/v2"
)

// Domain is a closed interval of real values.
type Domain struct {
	Lo, Hi float64
}

// Width returns Hi−Lo.
func (d Domain) Width() float64 { return d.Hi - d.Lo }

// Clamp restricts v to the domain.
func (d Domain) Clamp(v float64) float64 {
	return math.Min(d.Hi, math.Max(d.Lo, v))
}

// Mechanism is a numerical LDP perturbation mechanism.
type Mechanism interface {
	Name() string
	InputDomain() Domain
	OutputDomain() Domain
	// Perturb returns one ε-LDP report for value v. Inputs outside the
	// input domain are clamped first.
	Perturb(r *rand.Rand, v float64) float64
}

// IntervalProber exposes the exact probability that a perturbed output
// falls in an interval given the input. EMF transform matrices are built
// from these probabilities.
type IntervalProber interface {
	Mechanism
	// IntervalProb returns Pr[output ∈ [a,b] | input v].
	IntervalProb(v, a, b float64) float64
}

// PDFer exposes the output probability density.
type PDFer interface {
	Mechanism
	// PDF returns the output density at out given input v.
	PDF(v, out float64) float64
}

// Categorical is a categorical LDP mechanism over K categories.
type Categorical interface {
	Name() string
	K() int
	// PerturbCat returns one ε-LDP report for category c ∈ [0,K).
	PerturbCat(r *rand.Rand, c int) int
	// TransitionProb returns Pr[report = to | true = from].
	TransitionProb(from, to int) float64
}

// Moments numerically integrates the output density of a PDFer to obtain
// the conditional mean and variance of a single report given input v. It
// is used in tests to validate closed-form variance expressions and by the
// aggregation code for mechanisms without a closed form.
func Moments(m PDFer, v float64, steps int) (mean, variance float64) {
	d := m.OutputDomain()
	w := d.Width() / float64(steps)
	var m0, m1, m2 float64
	for i := 0; i < steps; i++ {
		x := d.Lo + (float64(i)+0.5)*w
		p := m.PDF(v, x) * w
		m0 += p
		m1 += p * x
		m2 += p * x * x
	}
	if m0 == 0 {
		return 0, 0
	}
	mean = m1 / m0
	variance = m2/m0 - mean*mean
	return mean, variance
}

// Overlap returns the length of the intersection of [a1,b1] and [a2,b2].
func Overlap(a1, b1, a2, b2 float64) float64 {
	lo := math.Max(a1, a2)
	hi := math.Min(b1, b2)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
