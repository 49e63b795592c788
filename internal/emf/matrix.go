// Package emf implements the Expectation-Maximization Filter machinery of
// the DAP paper: the transform matrix M (§IV-B, Fig. 2), the EMF algorithm
// (Algorithm 2), its post-processing variants EMF* (Algorithm 4) and CEMF*
// (Theorem 5), poisoned-side probing (Algorithm 3) and Byzantine feature
// extraction (§IV-C).
//
// The implementation generalizes the paper's "right half of the output
// domain" poison buckets to an arbitrary set of output-bucket indices.
// That single abstraction expresses side probing (left vs right half),
// O′-shifted poison ranges (footnote 5), CEMF* bucket suppression, and the
// categorical k-RR extension.
package emf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ldp"
)

// Matrix is the normal-user part of the paper's transform matrix M: a
// DPrime×D row-major matrix where entry (i,k) is the probability that a
// normal user whose value lies in input bucket k reports a value in output
// bucket i. The poison part of M is the identity on the poison bucket set
// (Byzantine users report values directly), so it is represented
// implicitly by the poison index set passed to the EM runs.
type Matrix struct {
	D      int // input buckets
	DPrime int // output buckets
	InLo   float64
	InHi   float64
	OutLo  float64
	OutHi  float64
	P      []float64 // DPrime × D, row-major
	// band is the optional two-level structured representation detected at
	// build time; nil keeps the dense E-step (see banded.go).
	band *bandRep
}

// InWidth returns the input bucket width.
func (m *Matrix) InWidth() float64 { return (m.InHi - m.InLo) / float64(m.D) }

// OutWidth returns the output bucket width.
func (m *Matrix) OutWidth() float64 { return (m.OutHi - m.OutLo) / float64(m.DPrime) }

// InCenter returns the midpoint of input bucket k (the paper's bucket
// representative for normal users).
func (m *Matrix) InCenter(k int) float64 {
	return m.InLo + (float64(k)+0.5)*m.InWidth()
}

// OutCenter returns the midpoint ν of output bucket i (the paper's bucket
// median for poison values, Eq. 11).
func (m *Matrix) OutCenter(i int) float64 {
	return m.OutLo + (float64(i)+0.5)*m.OutWidth()
}

// InCenters returns all input bucket midpoints.
func (m *Matrix) InCenters() []float64 {
	c := make([]float64, m.D)
	for k := range c {
		c[k] = m.InCenter(k)
	}
	return c
}

// Counts histograms reports into the matrix's output buckets (the c_i of
// Algorithm 2). The bucket division is hoisted to one reciprocal so the
// per-report work is a single fused multiply (reports number in the
// millions per harness run).
func (m *Matrix) Counts(reports []float64) []float64 {
	c := make([]float64, m.DPrime)
	lo, inv, last := m.OutLo, 1/m.OutWidth(), m.DPrime-1
	for _, v := range reports {
		// v ≥ lo−ulp for in-domain reports, so truncation matches Floor;
		// the clamps keep out-of-domain reports in the boundary buckets.
		i := int((v - lo) * inv)
		if i < 0 {
			i = 0
		} else if i > last {
			i = last
		}
		c[i]++
	}
	return c
}

// BuildNumeric constructs the transform matrix for a numerical mechanism
// by integrating the mechanism's output density exactly over each output
// bucket, with each input bucket represented by its midpoint. Rows of the
// transpose sum to one: every input bucket's mass lands somewhere in the
// output domain.
func BuildNumeric(mech ldp.IntervalProber, d, dprime int) (*Matrix, error) {
	if d < 1 || dprime < 1 {
		return nil, errors.New("emf: bucket counts must be positive")
	}
	in := mech.InputDomain()
	out := mech.OutputDomain()
	m := &Matrix{
		D:      d,
		DPrime: dprime,
		InLo:   in.Lo,
		InHi:   in.Hi,
		OutLo:  out.Lo,
		OutHi:  out.Hi,
		P:      make([]float64, dprime*d),
	}
	ow := m.OutWidth()
	for k := 0; k < d; k++ {
		v := m.InCenter(k)
		for i := 0; i < dprime; i++ {
			a := out.Lo + float64(i)*ow
			m.P[i*d+k] = mech.IntervalProb(v, a, a+ow)
		}
	}
	m.detectBands()
	return m, nil
}

// BuildCategorical constructs the transform matrix for a categorical
// mechanism: a K×K matrix of transition probabilities. Output "bucket
// centers" are the category indices, which is sufficient because the
// categorical pipeline never computes a poison mean.
func BuildCategorical(mech ldp.Categorical) *Matrix {
	k := mech.K()
	m := &Matrix{
		D:      k,
		DPrime: k,
		InLo:   0,
		InHi:   float64(k),
		OutLo:  0,
		OutHi:  float64(k),
		P:      make([]float64, k*k),
	}
	for from := 0; from < k; from++ {
		for to := 0; to < k; to++ {
			m.P[to*k+from] = mech.TransitionProb(from, to)
		}
	}
	m.detectBands()
	return m
}

// BucketCounts picks the paper's discretization for a collection of n
// reports under a mechanism with output bound ratio c = (OutHi−OutLo)/(InHi−InLo)·…;
// concretely the paper sets d′ = ⌊√n⌋ (rounded down to even) and
// d = ⌊d′(e^{ε/2}−1)/(e^{ε/2}+1)⌋ = ⌊d′/C⌋ for PM. The caller passes the
// mechanism's C (output half-width over input half-width); results are
// clamped to sane minima.
func BucketCounts(n int, c float64) (d, dprime int) {
	return InputBuckets(OutputBuckets(n), c), OutputBuckets(n)
}

// OutputBuckets is the paper's output resolution rule on its own:
// d′ = ⌊√n⌋ rounded down to even, floored at 8. Callers that fix d′ ahead
// of the data (the streaming engine sizes histograms from an expected
// volume) share the exact rounding rules of the batch path.
func OutputBuckets(n int) int {
	dprime := int(math.Sqrt(float64(n)))
	if dprime%2 == 1 {
		dprime--
	}
	if dprime < 8 {
		dprime = 8
	}
	return dprime
}

// InputBuckets derives the input bucket count d = ⌊d′/C⌋ for a chosen
// output bucket count d′, clamped to [1, d′] — the second half of
// BucketCounts, split out so callers that fix d′ up front (the streaming
// engine stores histograms at a tenant-configured resolution) share the
// exact rounding rules of the batch path.
func InputBuckets(dprime int, c float64) int {
	d := int(float64(dprime) / c)
	if d < 1 {
		d = 1
	}
	if d > dprime {
		d = dprime
	}
	return d
}

// PoisonRight returns the output-bucket indices whose centers lie on the
// right of oPrime — the poison component set when the poisoned side is
// Right (footnote 5 of the paper generalizes the right-half split to an
// arbitrary O′).
func (m *Matrix) PoisonRight(oPrime float64) []int {
	var idx []int
	for i := 0; i < m.DPrime; i++ {
		if m.OutCenter(i) > oPrime {
			idx = append(idx, i)
		}
	}
	return idx
}

// PoisonLeft returns the output-bucket indices whose centers lie on the
// left of oPrime.
func (m *Matrix) PoisonLeft(oPrime float64) []int {
	var idx []int
	for i := 0; i < m.DPrime; i++ {
		if m.OutCenter(i) < oPrime {
			idx = append(idx, i)
		}
	}
	return idx
}

func (m *Matrix) validatePoison(poison []int) error {
	seen := make(map[int]bool, len(poison))
	for _, j := range poison {
		if j < 0 || j >= m.DPrime {
			return fmt.Errorf("emf: poison bucket %d out of range [0,%d)", j, m.DPrime)
		}
		if seen[j] {
			return fmt.Errorf("emf: duplicate poison bucket %d", j)
		}
		seen[j] = true
	}
	return nil
}
