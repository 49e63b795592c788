// Package pm implements the Piecewise Mechanism (Wang et al., ICDE 2019),
// the default numerical perturbation mechanism of the DAP paper
// (Algorithm 1).
//
// Given an input v ∈ [−1,1] and budget ε, the output v′ ∈ [−C,C] with
// C = (e^{ε/2}+1)/(e^{ε/2}−1) is sampled uniformly from the "high" band
// [l(v), r(v)] with probability e^{ε/2}/(e^{ε/2}+1) and uniformly from the
// remaining two segments otherwise, where l(v) = (C+1)v/2 − (C−1)/2 and
// r(v) = l(v) + C − 1. Each report is an unbiased estimator of v.
package pm

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ldp"
)

// Mechanism is a Piecewise Mechanism instance for a fixed budget.
type Mechanism struct {
	eps       float64
	c         float64 // output bound C
	thresh    float64 // probability of the high band: e^{ε/2}/(e^{ε/2}+1)
	dIn       float64 // density inside [l, r]
	dOut      float64 // density outside
	invThresh float64 // 1/thresh, hoisted off the Perturb hot path
	invTail   float64 // 1/(1−thresh)
}

// New returns a Piecewise Mechanism with privacy budget eps.
func New(eps float64) (*Mechanism, error) {
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return nil, errors.New("pm: epsilon must be positive and finite")
	}
	e2 := math.Exp(eps / 2)
	c := (e2 + 1) / (e2 - 1)
	thresh := e2 / (e2 + 1)
	return &Mechanism{
		eps:       eps,
		c:         c,
		thresh:    thresh,
		dIn:       thresh / (c - 1),
		dOut:      (1 - thresh) / (c + 1),
		invThresh: 1 / thresh,
		invTail:   1 / (1 - thresh),
	}, nil
}

// MustNew is New but panics on error; for use with compile-time constants.
func MustNew(eps float64) *Mechanism {
	m, err := New(eps)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements ldp.Mechanism.
func (m *Mechanism) Name() string { return fmt.Sprintf("PM(ε=%g)", m.eps) }

// C returns the output-domain bound C = (e^{ε/2}+1)/(e^{ε/2}−1).
func (m *Mechanism) C() float64 { return m.c }

// InputDomain implements ldp.Mechanism.
func (m *Mechanism) InputDomain() ldp.Domain { return ldp.Domain{Lo: -1, Hi: 1} }

// OutputDomain implements ldp.Mechanism.
func (m *Mechanism) OutputDomain() ldp.Domain { return ldp.Domain{Lo: -m.c, Hi: m.c} }

// Band returns the high-probability band [l(v), r(v)] for input v.
func (m *Mechanism) Band(v float64) (l, r float64) {
	l = (m.c+1)/2*v - (m.c-1)/2
	return l, l + m.c - 1
}

// Perturb implements Algorithm 1 of the paper. It consumes a single
// uniform draw: conditioned on u < thresh, u/thresh is again U[0,1) (and
// (u−thresh)/(1−thresh) in the complementary branch), so the branch
// selector is recycled as the position inside the selected segment — an
// exact distributional identity, not an approximation. Halving the
// generator traffic is measurable when the Monte-Carlo harness perturbs
// millions of values per experiment.
func (m *Mechanism) Perturb(r *rand.Rand, v float64) float64 {
	if v < -1 {
		v = -1
	} else if v > 1 {
		v = 1
	}
	l, rr := m.Band(v)
	u := r.Float64()
	if u < m.thresh {
		return l + (rr-l)*(u*m.invThresh)
	}
	// Uniform over [−C, l) ∪ (r, C], proportional to segment lengths.
	left := l + m.c
	right := m.c - rr
	t := (u - m.thresh) * m.invTail * (left + right)
	if t < left {
		return -m.c + t
	}
	return rr + (t - left)
}

// PDF returns the output density at out given input v.
func (m *Mechanism) PDF(v, out float64) float64 {
	v = m.InputDomain().Clamp(v)
	if out < -m.c || out > m.c {
		return 0
	}
	l, r := m.Band(v)
	if out >= l && out <= r {
		return m.dIn
	}
	return m.dOut
}

// IntervalProb returns Pr[output ∈ [a,b] | input v] in closed form.
func (m *Mechanism) IntervalProb(v, a, b float64) float64 {
	v = m.InputDomain().Clamp(v)
	if b < a {
		a, b = b, a
	}
	a = math.Max(a, -m.c)
	b = math.Min(b, m.c)
	if b <= a {
		return 0
	}
	l, r := m.Band(v)
	in := ldp.Overlap(a, b, l, r)
	return in*m.dIn + (b-a-in)*m.dOut
}

// Var returns the closed-form variance of a single report given input v:
// v²/(e^{ε/2}−1) + (e^{ε/2}+3)/(3(e^{ε/2}−1)²).
func (m *Mechanism) Var(v float64) float64 {
	e2 := math.Exp(m.eps / 2)
	return v*v/(e2-1) + (e2+3)/(3*(e2-1)*(e2-1))
}

// WorstCaseVar returns the worst-case per-report variance, attained at
// v = ±1; this is the B_t ingredient of Algorithm 5.
func (m *Mechanism) WorstCaseVar() float64 { return m.Var(1) }

var (
	_ ldp.Mechanism      = (*Mechanism)(nil)
	_ ldp.IntervalProber = (*Mechanism)(nil)
	_ ldp.PDFer          = (*Mechanism)(nil)
)
