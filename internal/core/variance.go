package core

import (
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

// VarianceEstimator generalizes DAP beyond the mean (§V-D, "DAP is not
// limited to mean estimation"): it estimates the *variance* of the normal
// users' values under the same threat model. The user population is split
// in half; one half runs the mean pipeline on v, the other on the
// transformed value t = 2v²−1 ∈ [−1,1] (so E[t] = 2E[v²]−1), each half
// under its own full-budget DAP. The variance follows from
// Var = E[v²] − E[v]². Every user still reports exactly one statistic and
// spends exactly ε.
type VarianceEstimator struct {
	// Params configures both underlying DAP instances.
	Params Params
}

// VarianceEstimate is the output of a variance-estimation round.
type VarianceEstimate struct {
	// Mean is the estimated first moment E[v].
	Mean float64
	// SecondMoment is the estimated E[v²] (clamped into [0,1]).
	SecondMoment float64
	// Variance is max(0, SecondMoment − Mean²).
	Variance float64
	// MeanEst and MomentEst expose the two underlying DAP estimates.
	MeanEst, MomentEst *Result
}

// Run executes one variance-estimation round against adv with Byzantine
// proportion gamma.
func (ve *VarianceEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*VarianceEstimate, error) {
	meanVals, momentVals, err := splitMoments(r, values)
	if err != nil {
		return nil, err
	}
	d1, err := NewDAP(ve.Params)
	if err != nil {
		return nil, err
	}
	d2, err := NewDAP(ve.Params)
	if err != nil {
		return nil, err
	}
	meanEst, err := d1.Run(r, meanVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	momentEst, err := d2.Run(r, momentVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	m2 := stats.Clamp((momentEst.Mean+1)/2, 0, 1)
	variance := m2 - meanEst.Mean*meanEst.Mean
	if variance < 0 {
		variance = 0
	}
	return &VarianceEstimate{
		Mean:         meanEst.Mean,
		SecondMoment: m2,
		Variance:     variance,
		MeanEst:      meanEst,
		MomentEst:    momentEst,
	}, nil
}

// splitMoments splits the users into random disjoint halves — each user
// contributes one statistic only and spends exactly ε: the first half keeps
// v for the mean pipeline, the second reports t = 2v²−1 for the moment
// pipeline.
func splitMoments(r *rand.Rand, values []float64) (meanVals, momentVals []float64, err error) {
	if len(values) < 4 {
		return nil, nil, badCollection("variance estimation needs at least four users")
	}
	perm := rng.SampleWithoutReplacement(r, len(values), len(values))
	half := len(values) / 2
	meanVals = make([]float64, 0, half)
	momentVals = make([]float64, 0, len(values)-half)
	for i, u := range perm {
		if v := values[u]; i < half {
			meanVals = append(meanVals, v)
		} else {
			momentVals = append(momentVals, 2*v*v-1)
		}
	}
	return meanVals, momentVals, nil
}
