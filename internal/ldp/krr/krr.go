// Package krr implements k-ary Randomized Response (generalized RR), the
// categorical LDP mechanism used by the DAP paper's frequency-estimation
// extension (§V-D, Fig. 9(c)(d)).
//
// A report keeps the true category with probability p = e^ε/(e^ε+k−1) and
// otherwise outputs one of the remaining k−1 categories uniformly, each
// with probability q = 1/(e^ε+k−1).
package krr

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/ldp"
)

// Mechanism is a k-RR instance for a fixed budget and category count.
type Mechanism struct {
	eps float64
	k   int
	p   float64
	q   float64
}

// New returns a k-RR mechanism over k categories with budget eps.
func New(eps float64, k int) (*Mechanism, error) {
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return nil, errors.New("krr: epsilon must be positive and finite")
	}
	if k < 2 {
		return nil, errors.New("krr: need at least two categories")
	}
	e := math.Exp(eps)
	return &Mechanism{
		eps: eps,
		k:   k,
		p:   e / (e + float64(k) - 1),
		q:   1 / (e + float64(k) - 1),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(eps float64, k int) *Mechanism {
	m, err := New(eps, k)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements ldp.Categorical.
func (m *Mechanism) Name() string { return fmt.Sprintf("kRR(ε=%g,k=%d)", m.eps, m.k) }

// K implements ldp.Categorical.
func (m *Mechanism) K() int { return m.k }

// PerturbCat implements ldp.Categorical. It panics if c is out of range.
func (m *Mechanism) PerturbCat(r *rand.Rand, c int) int {
	if c < 0 || c >= m.k {
		panic("krr: category out of range")
	}
	if r.Float64() < m.p {
		return c
	}
	// Uniform over the other k−1 categories.
	o := r.IntN(m.k - 1)
	if o >= c {
		o++
	}
	return o
}

// TransitionProb implements ldp.Categorical.
func (m *Mechanism) TransitionProb(from, to int) float64 {
	if from == to {
		return m.p
	}
	return m.q
}

// EstimateFreq converts observed report counts into unbiased frequency
// estimates: f̂_j = (c_j/n − q)/(p−q). Estimates may be slightly negative;
// callers that need a distribution should clamp and renormalize.
func (m *Mechanism) EstimateFreq(counts []float64) []float64 {
	n := 0.0
	for _, c := range counts {
		n += c
	}
	out := make([]float64, len(counts))
	if n == 0 {
		return out
	}
	for j, c := range counts {
		out[j] = (c/n - m.q) / (m.p - m.q)
	}
	return out
}

// WorstCaseVar returns an upper bound on n·Var(f̂_j) for a single category,
// 1/(4(p−q)²), used as the per-report variance proxy when aggregating
// frequency estimates across DAP groups.
func (m *Mechanism) WorstCaseVar() float64 {
	d := m.p - m.q
	return 1 / (4 * d * d)
}

var _ ldp.Categorical = (*Mechanism)(nil)
