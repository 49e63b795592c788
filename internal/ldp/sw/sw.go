// Package sw implements the Square Wave mechanism (Li et al., SIGMOD 2020)
// used by the DAP paper's §V-D extension for distribution estimation.
//
// Given an input v ∈ [0,1] and budget ε, the output lies in [−b, 1+b] with
// b = (εe^ε − e^ε + 1)/(2e^ε(e^ε − 1 − ε)). The density is p on the "near"
// band [v−b, v+b] and q elsewhere, with p = e^ε·q and 2bp + q = 1.
package sw

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ldp"
)

// Mechanism is a Square Wave instance for a fixed budget.
type Mechanism struct {
	eps float64
	b   float64
	p   float64 // density inside [v−b, v+b]
	q   float64 // density outside
}

// New returns a Square Wave mechanism with privacy budget eps.
func New(eps float64) (*Mechanism, error) {
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return nil, errors.New("sw: epsilon must be positive and finite")
	}
	e := math.Exp(eps)
	den := 2 * e * (e - 1 - eps)
	var b float64
	if den < 1e-300 {
		// ε→0 limit of the closed form is 1/2.
		b = 0.5
	} else {
		b = (eps*e - e + 1) / den
	}
	q := 1 / (2*b*e + 1)
	return &Mechanism{eps: eps, b: b, p: e * q, q: q}, nil
}

// MustNew is New but panics on error.
func MustNew(eps float64) *Mechanism {
	m, err := New(eps)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements ldp.Mechanism.
func (m *Mechanism) Name() string { return fmt.Sprintf("SW(ε=%g)", m.eps) }

// InputDomain implements ldp.Mechanism.
func (m *Mechanism) InputDomain() ldp.Domain { return ldp.Domain{Lo: 0, Hi: 1} }

// OutputDomain implements ldp.Mechanism.
func (m *Mechanism) OutputDomain() ldp.Domain { return ldp.Domain{Lo: -m.b, Hi: 1 + m.b} }

// Perturb implements the Square Wave sampling rule.
func (m *Mechanism) Perturb(r *rand.Rand, v float64) float64 {
	v = m.InputDomain().Clamp(v)
	pNear := 2 * m.b * m.p
	if r.Float64() < pNear {
		return v - m.b + 2*m.b*r.Float64()
	}
	// Uniform over [−b, v−b) ∪ (v+b, 1+b], proportional to lengths.
	left := v // (v−b) − (−b)
	right := 1 - v
	u := r.Float64() * (left + right)
	if u < left {
		return -m.b + u
	}
	return v + m.b + (u - left)
}

// PDF returns the output density at out given input v.
func (m *Mechanism) PDF(v, out float64) float64 {
	v = m.InputDomain().Clamp(v)
	if out < -m.b || out > 1+m.b {
		return 0
	}
	if out >= v-m.b && out <= v+m.b {
		return m.p
	}
	return m.q
}

// IntervalProb returns Pr[output ∈ [a,b] | input v] in closed form.
func (m *Mechanism) IntervalProb(v, a, b float64) float64 {
	v = m.InputDomain().Clamp(v)
	if b < a {
		a, b = b, a
	}
	a = math.Max(a, -m.b)
	b = math.Min(b, 1+m.b)
	if b <= a {
		return 0
	}
	in := ldp.Overlap(a, b, v-m.b, v+m.b)
	return in*m.p + (b-a-in)*m.q
}

// WorstCaseVar returns the per-report output variance at the worst-case
// input (v ∈ {0,1} by symmetry), computed by numeric quadrature. SW's mean
// estimate comes from a reconstructed histogram rather than a sample mean,
// so this serves only as a relative group weight.
func (m *Mechanism) WorstCaseVar() float64 {
	_, v0 := ldp.Moments(m, 0, 8192)
	_, v1 := ldp.Moments(m, 1, 8192)
	return math.Max(v0, v1)
}

var (
	_ ldp.Mechanism      = (*Mechanism)(nil)
	_ ldp.IntervalProber = (*Mechanism)(nil)
	_ ldp.PDFer          = (*Mechanism)(nil)
)
