package core

import (
	"context"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

// varianceDAP generalizes DAP beyond the mean (§V-D, "DAP is not limited
// to mean estimation"): TaskVariance's estimator. It estimates the
// *variance* of the normal users' values under the same threat model. The
// user population is split in half; one half runs the mean pipeline on v,
// the other on the transformed value t = 2v²−1 ∈ [−1,1] (so E[t] =
// 2E[v²]−1), each half under its own full-budget mean protocol. The
// variance follows from Var = E[v²] − E[v]². Every user still reports
// exactly one statistic and spends exactly ε.
type varianceDAP struct {
	sp     Spec
	mean   *meanDAP // first h groups: E[v]
	moment *meanDAP // last h groups: E[2v²−1]
}

func newVarianceDAP(sp Spec) (*varianceDAP, error) {
	mean, err := newMeanDAP(sp)
	if err != nil {
		return nil, err
	}
	moment, err := newMeanDAP(sp)
	if err != nil {
		return nil, err
	}
	return &varianceDAP{sp: sp, mean: mean, moment: moment}, nil
}

func (e *varianceDAP) Spec() Spec { return e.sp }

// Groups returns the 2h-group layout: the mean half followed by the
// moment half.
func (e *varianceDAP) Groups() []Group {
	return append(e.mean.Groups(), e.moment.Groups()...)
}

// Collect splits the users into random disjoint halves (each contributes
// one statistic and spends exactly ε), collects the mean half on v and
// the moment half on 2v²−1, and concatenates the group reports.
func (e *varianceDAP) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	meanVals, momentVals, err := splitMoments(r, values)
	if err != nil {
		return nil, err
	}
	c1, err := e.mean.Collect(r, meanVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	c2, err := e.moment.Collect(r, momentVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	return &Collection{
		Groups:   append(c1.Groups, c2.Groups...),
		ByzCount: c1.ByzCount + c2.ByzCount,
	}, nil
}

func (e *varianceDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.mean.H()
	if col == nil || len(col.Groups) != 2*h {
		return nil, badCollection("variance estimation expects %d groups (mean half then moment half)", 2*h)
	}
	m1, err := e.mean.Estimate(withSubState(ctx, 0), &Collection{Groups: col.Groups[:h]})
	if err != nil {
		return nil, err
	}
	m2, err := e.moment.Estimate(withSubState(ctx, 1), &Collection{Groups: col.Groups[h:]})
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

func (e *varianceDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.mean.H()
	if hc == nil || len(hc.Counts) != 2*h || hc.Sums == nil || len(hc.Sums) != 2*h {
		return nil, badCollection("variance estimation expects %d group histograms with sums", 2*h)
	}
	m1, err := e.mean.EstimateHist(withSubState(ctx, 0), &HistCollection{Counts: hc.Counts[:h], Sums: hc.Sums[:h]})
	if err != nil {
		return nil, err
	}
	m2, err := e.moment.EstimateHist(withSubState(ctx, 1), &HistCollection{Counts: hc.Counts[h:], Sums: hc.Sums[h:]})
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

// Run is Collect followed by a cold Estimate.
func (e *varianceDAP) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return run(e, r, values, adv, gamma)
}

// varianceResult combines the two half estimates: Var = E[v²] − E[v]²
// with E[v²] = (E[2v²−1]+1)/2. Mean, the probed threat features and VarMin
// are the mean half's; group diagnostics concatenate the halves, solver
// telemetry sums and the warm states compose.
func varianceResult(m1, m2 *Result) *Result {
	res := *m1
	res.Task = TaskVariance
	res.SecondMoment = stats.Clamp((m2.Mean+1)/2, 0, 1)
	res.Variance = math.Max(0, res.SecondMoment-m1.Mean*m1.Mean)
	res.GroupMeans = append(append([]float64(nil), m1.GroupMeans...), m2.GroupMeans...)
	res.GroupGammas = append(append([]float64(nil), m1.GroupGammas...), m2.GroupGammas...)
	res.Weights = append(append([]float64(nil), m1.Weights...), m2.Weights...)
	res.NHat = append(append([]float64(nil), m1.NHat...), m2.NHat...)
	res.EMFIters += m2.EMFIters
	res.EMFRestarts += m2.EMFRestarts
	res.WarmHits += m2.WarmHits
	res.Converged = m1.Converged && m2.Converged
	res.Warm = &WarmState{sub: []*WarmState{m1.Warm, m2.Warm}}
	return &res
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
