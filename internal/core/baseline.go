package core

import (
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/stats"
)

// Baseline is the §IV protocol: every user perturbs her value twice, once
// with a small probing budget ε_α and once with the estimation budget ε_β
// (ε_α + ε_β = ε, ε_α ≪ ε_β). The collector probes Byzantine features on
// the ε_α reports with EMF and removes the poison mass from the ε_β mean
// (Eq. 12). Its known flaw — attackers may behave honestly on the probing
// budget — motivates DAP and is reproducible via GamedCollect.
type Baseline struct {
	// EpsAlpha is the probing budget ε_α.
	EpsAlpha float64
	// EpsBeta is the estimation budget ε_β.
	EpsBeta float64
	// Scheme selects EMF, EMF* or CEMF* for the probing stage.
	Scheme Scheme
	// OPrime is the pessimistic mean initialization (default 0).
	OPrime float64
	// SuppressFactor is CEMF*'s threshold factor (0 selects 0.5).
	SuppressFactor float64
	// EMFMaxIter caps EM iterations (0 selects the emf default).
	EMFMaxIter int

	mechAlpha, mechBeta *pm.Mechanism
}

// NewBaseline validates the budget split and precomputes mechanisms.
func NewBaseline(epsAlpha, epsBeta float64, scheme Scheme) (*Baseline, error) {
	if epsAlpha <= 0 || epsBeta <= 0 {
		return nil, badSpec("baseline budgets must be positive")
	}
	if epsAlpha >= epsBeta {
		return nil, badSpec("baseline requires eps_alpha << eps_beta")
	}
	ma, err := pm.New(epsAlpha)
	if err != nil {
		return nil, err
	}
	mb, err := pm.New(epsBeta)
	if err != nil {
		return nil, err
	}
	return &Baseline{EpsAlpha: epsAlpha, EpsBeta: epsBeta, Scheme: scheme, mechAlpha: ma, mechBeta: mb}, nil
}

// BaselineCollection holds the two report sets V′(α) and V′(β).
type BaselineCollection struct {
	Alpha []float64
	Beta  []float64
}

// Collect simulates users under the baseline protocol. Byzantine users
// poison both report sets (the honest-threat assumption of §IV).
func (b *Baseline) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*BaselineCollection, error) {
	return b.collect(r, values, adv, gamma, false)
}

// GamedCollect simulates the §V attack on the baseline: Byzantine users
// report *honestly* on the probing budget ε_α (hiding from EMF) and send
// poison only on ε_β.
func (b *Baseline) GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*BaselineCollection, error) {
	return b.collect(r, values, adv, gamma, true)
}

func (b *Baseline) collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64, gamed bool) (*BaselineCollection, error) {
	n := len(values)
	adv, nByz, err := simulated(n, 0, adv, gamma)
	if err != nil {
		return nil, err
	}
	perm := r.Perm(n)
	col := &BaselineCollection{
		Alpha: make([]float64, 0, n),
		Beta:  make([]float64, 0, n),
	}
	envA := attack.EnvFor(b.mechAlpha, b.OPrime)
	envB := attack.EnvFor(b.mechBeta, b.OPrime)
	for i, u := range perm {
		byz := i < nByz
		if byz && !gamed {
			col.Alpha = append(col.Alpha, adv.Poison(r, envA, 1)...)
		} else {
			col.Alpha = append(col.Alpha, b.mechAlpha.Perturb(r, values[u]))
		}
		if byz {
			col.Beta = append(col.Beta, adv.Poison(r, envB, 1)...)
		} else {
			col.Beta = append(col.Beta, b.mechBeta.Perturb(r, values[u]))
		}
	}
	return col, nil
}

// Estimate probes Byzantine features on V′(α) and estimates the mean from
// V′(β) per §IV-D: since the α and β poison sets form a unified attack,
// their deviation from O is equal, so M_α estimated from ŷ(α) — rescaled
// between the two output domains — substitutes for M_β in Eq. 12.
func (b *Baseline) Estimate(col *BaselineCollection) (*Result, error) {
	if col == nil || len(col.Alpha) == 0 || len(col.Beta) == 0 {
		return nil, badCollection("baseline collection is empty")
	}
	m, err := numericMatrix(b.mechAlpha, emf.OutputBuckets(len(col.Alpha)))
	if err != nil {
		return nil, err
	}
	return b.estimate(m, m.Counts(col.Alpha), float64(len(col.Beta)), stats.Sum(col.Beta))
}

// EstimateHist runs the baseline collector from the histogram sufficient
// statistic: Counts[0] is the ε_α report histogram (EMF probing reads only
// bucket counts), Counts[1]/Sums[1] carry the ε_β report count and exact
// sum that Eq. 12 needs.
func (b *Baseline) EstimateHist(hc *HistCollection) (*Result, error) {
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
func (b *Baseline) estimate(m *emf.Matrix, counts []float64, nBeta, sumBeta float64) (*Result, error) {
	sv := solver{scheme: b.Scheme, suppress: b.SuppressFactor, maxIter: b.EMFMaxIter}
	probe, err := emf.ProbeSide(m, counts, b.OPrime, sv.cfg(b.EpsAlpha))
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(probe.Left, probe.Right)
	// The probe's chosen fit solved the same poison layout: it is the
	// scheme's base fit and the seed of a constrained re-run.
	base := probe.Chosen()
	fit, _, _, err := sv.fit(m, counts, sidePoison(probe.Side, b.OPrime)(m), base.Gamma(), b.EpsAlpha, base, nil, base)
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
func (b *Baseline) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := b.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return b.Estimate(col)
}
