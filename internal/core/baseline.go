package core

import (
	"context"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/stats"
)

// baseline is the §IV protocol, TaskBaseline's estimator: every user
// perturbs her value twice, once with a small probing budget ε_α and once
// with the estimation budget ε_β (ε_α + ε_β = ε, ε_α ≪ ε_β). The collector
// probes Byzantine features on the ε_α reports with EMF and removes the
// poison mass from the ε_β mean (Eq. 12). Its known flaw — attackers may
// behave honestly on the probing budget — motivates DAP and is
// reproducible via GamedCollect. It embeds the solver for the scheme fit;
// the group layout is the probing budget then the estimation budget, one
// report each.
type baseline struct {
	solver
	mechAlpha, mechBeta *pm.Mechanism
}

func newBaseline(sp Spec) (*baseline, error) {
	ma, err := pm.New(sp.EpsAlpha)
	if err != nil {
		return nil, err
	}
	mb, err := pm.New(sp.EpsBeta)
	if err != nil {
		return nil, err
	}
	b := &baseline{solver: specSolver(sp, false), mechAlpha: ma, mechBeta: mb}
	b.groups = []Group{{Index: 0, Eps: sp.EpsAlpha, Reports: 1}, {Index: 1, Eps: sp.EpsBeta, Reports: 1}}
	return b, nil
}

// Collect simulates users under the baseline protocol into the two report
// sets V′(α) and V′(β). Byzantine users poison both (the honest-threat
// assumption of §IV).
func (b *baseline) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	return b.collect(r, values, adv, gamma, false)
}

// GamedCollect simulates the §V attack on the baseline: Byzantine users
// report *honestly* on the probing budget ε_α (hiding from EMF) and send
// poison only on ε_β.
func (b *baseline) GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	return b.collect(r, values, adv, gamma, true)
}

func (b *baseline) collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64, gamed bool) (*Collection, error) {
	n := len(values)
	adv, nByz, err := simulated(n, 0, adv, gamma)
	if err != nil {
		return nil, err
	}
	perm := r.Perm(n)
	alpha, beta := make([]float64, 0, n), make([]float64, 0, n)
	envA := attack.EnvFor(b.mechAlpha, b.sp.OPrime)
	envB := attack.EnvFor(b.mechBeta, b.sp.OPrime)
	for i, u := range perm {
		byz := i < nByz
		if byz && !gamed {
			alpha = append(alpha, adv.Poison(r, envA, 1)...)
		} else {
			alpha = append(alpha, b.mechAlpha.Perturb(r, values[u]))
		}
		if byz {
			beta = append(beta, adv.Poison(r, envB, 1)...)
		} else {
			beta = append(beta, b.mechBeta.Perturb(r, values[u]))
		}
	}
	return &Collection{Groups: [][]float64{alpha, beta}}, nil
}

// Estimate probes Byzantine features on V′(α) and estimates the mean from
// V′(β) per §IV-D: since the α and β poison sets form a unified attack,
// their deviation from O is equal, so M_α estimated from ŷ(α) — rescaled
// between the two output domains — substitutes for M_β in Eq. 12.
func (b *baseline) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != 2 {
		return nil, badCollection("baseline estimation expects two groups (alpha, beta)")
	}
	alpha, beta := col.Groups[0], col.Groups[1]
	if len(alpha) == 0 || len(beta) == 0 {
		return nil, badCollection("baseline collection is empty")
	}
	m, err := numericMatrix(b.mechAlpha, emf.OutputBuckets(len(alpha)))
	if err != nil {
		return nil, err
	}
	return b.estimate(m, m.Counts(alpha), float64(len(beta)), stats.Sum(beta))
}

// EstimateHist runs the baseline collector from the histogram sufficient
// statistic: Counts[0] is the ε_α report histogram (EMF probing reads only
// bucket counts), Counts[1]/Sums[1] carry the ε_β report count and exact
// sum that Eq. 12 needs.
func (b *baseline) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if hc == nil || len(hc.Counts) != 2 || hc.Sums == nil || len(hc.Sums) != 2 {
		return nil, badCollection("baseline estimation expects alpha and beta histograms with sums")
	}
	if len(hc.Counts[0]) < 1 {
		return nil, badCollection("baseline alpha histogram is empty")
	}
	m, err := numericMatrix(b.mechAlpha, len(hc.Counts[0]))
	if err != nil {
		return nil, err
	}
	nBeta := stats.Sum(hc.Counts[1])
	if nBeta <= 0 {
		return nil, badCollection("baseline beta histogram holds no reports")
	}
	return b.estimate(m, hc.Counts[0], nBeta, hc.Sums[1])
}

// estimate is the shared collector core: probe on the ε_α histogram,
// remove the rescaled poison mass from the ε_β mean.
func (b *baseline) estimate(m *emf.Matrix, counts []float64, nBeta, sumBeta float64) (*Result, error) {
	epsAlpha, oPrime := b.groups[0].Eps, b.sp.OPrime
	probe, err := emf.ProbeSide(m, counts, oPrime, b.cfg(epsAlpha))
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(probe.Left, probe.Right)
	// The probe's chosen fit solved the same poison layout: it is the
	// scheme's base fit and the seed of a constrained re-run.
	base := probe.Chosen()
	fit, _, _, err := b.fit(m, counts, sidePoison(probe.Side, oPrime)(m), base.Gamma(), epsAlpha, base, nil, base)
	if err != nil {
		return nil, err
	}
	if fit != base {
		diag.observe(fit)
	}
	gamma := fit.Gamma()
	// M_α lives on the ε_α output domain [−C_α, C_α]; the unified-attack
	// assumption equates the *deviation impact*, so rescale the poison mean
	// into the ε_β domain before subtracting (M_α = M_β in the paper's
	// shared-domain formulation).
	poisonMeanAlpha := emf.PoisonMean(m, fit)
	scale := b.mechBeta.C() / b.mechAlpha.C()
	poisonMeanBeta := stats.Clamp(poisonMeanAlpha*scale, -b.mechBeta.C(), b.mechBeta.C())

	mHat := gamma * nBeta
	if mHat > 0.95*nBeta {
		mHat = 0.95 * nBeta
	}
	mean := stats.Clamp((sumBeta-mHat*poisonMeanBeta)/(nBeta-mHat), -1, 1)
	res := &Result{
		Task:          TaskBaseline,
		Mean:          mean,
		PoisonedRight: probe.Side == emf.Right,
		Gamma:         gamma,
		GroupMeans:    []float64{mean},
		GroupGammas:   []float64{gamma},
		Weights:       []float64{1},
		NHat:          []float64{nBeta - mHat},
	}
	diag.apply(res)
	return res, nil
}

// Run is Collect followed by Estimate.
func (b *baseline) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return run(b, r, values, adv, gamma)
}
