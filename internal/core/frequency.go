package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/krr"
	"repro/internal/stats"
)

// FreqParams configures the categorical frequency-estimation extension of
// DAP (§V-D, Fig. 9(c)(d)): users hold one of K categories, perturb with
// k-RR, and Byzantine users inject reports directly into chosen
// categories. Poisoned categories are located by recursive side probing
// (Algorithm 3) and their injected mass removed by the usual schemes.
type FreqParams struct {
	Eps  float64
	Eps0 float64
	K    int
	// Scheme selects EMF, EMF* or CEMF*.
	Scheme Scheme
	// SuppressFactor is CEMF*'s threshold factor (0 selects 0.5).
	SuppressFactor float64
	// EMFMaxIter caps EM iterations (0 selects the emf default).
	EMFMaxIter int
	// WeightMode selects the aggregation weights.
	WeightMode WeightMode
}

// FreqDAP is the categorical instantiation of the protocol.
type FreqDAP struct {
	solver
	p     FreqParams
	mechs []*krr.Mechanism
}

// NewFreqDAP validates parameters and precomputes the group layout.
func NewFreqDAP(p FreqParams) (*FreqDAP, error) {
	if p.K < 2 {
		return nil, badSpec("categorical protocol needs K >= 2")
	}
	s, mechs, err := newSolver(solver{
		eps: p.Eps, scheme: p.Scheme, suppress: p.SuppressFactor,
		maxIter: p.EMFMaxIter, weights: p.WeightMode,
	}, p.Eps0, func(eps float64) (*krr.Mechanism, error) { return krr.New(eps, p.K) })
	if err != nil {
		return nil, err
	}
	s.matrix = func(t, dprime int) (*emf.Matrix, error) {
		if dprime != p.K {
			return nil, badCollection("group %d counts have wrong arity", t)
		}
		return emf.BuildCategoricalCached(mechs[t]), nil
	}
	return &FreqDAP{solver: s, p: p, mechs: mechs}, nil
}

// Mechanism returns the k-RR instance of group t.
func (d *FreqDAP) Mechanism(t int) *krr.Mechanism { return d.mechs[t] }

// FreqCollection holds per-group categorical report counts.
type FreqCollection struct {
	// Counts[t][j] is the number of reports of category j in group t.
	Counts [][]float64
	// ByzCount is the simulation ground truth.
	ByzCount int
}

// CollectFreq simulates the user side: normal users k-RR-perturb their
// category once per report slot; Byzantine users report uniformly among
// poisonCats directly (no perturbation — the direct-injection threat of
// Fig. 9(c)(d)). It is the Targeted-adversary special case of
// CollectFreqAdv, kept as the historical entry point; the two produce
// bit-identical collections at equal seeds.
func (d *FreqDAP) CollectFreq(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*FreqCollection, error) {
	if gamma > 0 && len(poisonCats) == 0 {
		return nil, fmt.Errorf("%w: gamma > 0 requires poison categories", ErrDomain)
	}
	for _, c := range poisonCats {
		if c < 0 || c >= d.p.K {
			return nil, fmt.Errorf("%w: poison category %d out of range", ErrDomain, c)
		}
	}
	var adv attack.Adversary = attack.None{}
	if len(poisonCats) > 0 {
		adv = &attack.Targeted{Cats: poisonCats}
	}
	return d.CollectFreqAdv(r, cats, adv, gamma)
}

// CollectFreqAdv simulates the user side under an arbitrary categorical
// adversary: normal users k-RR-perturb their category once per report
// slot; Byzantine users inject the categories adv emits (as float64 ids
// over the domain [0, K)) directly, no perturbation. Reports outside
// [0, K) or non-integral are rejected with ErrDomain.
func (d *FreqDAP) CollectFreqAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*FreqCollection, error) {
	n, h := len(cats), d.H()
	adv, nByz, err := simulated(n, h, adv, gamma)
	if err != nil {
		return nil, err
	}
	// One shuffle provides both the Byzantine subset (the fixed ids
	// {0..nByz−1}, scattered by the shuffle; their categories are never
	// reported) and the group assignment (contiguous chunks), mirroring
	// DAP.Collect — per-group Byzantine counts stay hypergeometric.
	perm := r.Perm(n)
	col := &FreqCollection{Counts: make([][]float64, h), ByzCount: nByz}
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.Env{Domain: ldp.Domain{Lo: 0, Hi: float64(d.p.K)}, Group: t}
		counts := make([]float64, d.p.K)
		for _, u := range perm[lo:hi] {
			if u < nByz {
				for _, v := range adv.Poison(r, env, g.Reports) {
					c := int(v)
					if v != float64(c) || c < 0 || c >= d.p.K {
						return nil, fmt.Errorf("core: attack %q emitted %g, not a category in [0,%d): %w",
							adv.Name(), v, d.p.K, ErrDomain)
					}
					counts[c]++
				}
			} else {
				for k := 0; k < g.Reports; k++ {
					counts[mech.PerturbCat(r, cats[u])]++
				}
			}
		}
		col.Counts[t] = counts
	}
	return col, nil
}

// EstimateFreq runs the collector side.
func (d *FreqDAP) EstimateFreq(col *FreqCollection) (*Result, error) {
	return d.EstimateFreqWarm(col, nil)
}

// EstimateFreqWarm is EstimateFreq with the per-group solver runs seeded
// from a previous estimate's fits (tolerance-equivalent; see WarmState).
// The recursive category probe always runs cold: its poison sets shrink
// as the recursion descends, so no previous fit matches them reliably
// (and it is excluded from WarmHits).
func (d *FreqDAP) EstimateFreqWarm(col *FreqCollection, warm *WarmState) (*Result, error) {
	if col == nil {
		return nil, badCollection("collection does not match group layout")
	}
	matrices, err := d.matrices(&HistCollection{Counts: col.Counts})
	if err != nil {
		return nil, err
	}
	h := d.H()
	// Stage 3: probe poisoned categories and γ̂ at the smallest budget.
	poisonCats, probe, err := emf.ProbeCategories(matrices[h-1], col.Counts[h-1], d.cfg(d.groups[h-1].Eps))
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(probe)
	gamma := probe.Gamma()

	fits, err := d.fitGroups(matrices, col.Counts, func(*emf.Matrix) []int { return poisonCats }, gamma, probe, warm, diag)
	if err != nil {
		return nil, err
	}
	res := fits.result(TaskFrequency, gamma)
	res.PoisonCats = poisonCats
	// Read-out: each group's fit is its normal-user frequency vector.
	res.GroupFreqs = make([][]float64, h)
	for t, fit := range fits.finals {
		res.GroupFreqs[t] = stats.Normalize(fit.X)
	}
	res.Freqs = mixFreqs(res.Weights, res.GroupFreqs)
	return res, nil
}

// mixFreqs aggregates per-group frequency vectors with the given weights
// and renormalizes.
func mixFreqs(w []float64, groups [][]float64) []float64 {
	freqs := make([]float64, len(groups[0]))
	for t, g := range groups {
		for j := range freqs {
			freqs[j] += w[t] * g[j]
		}
	}
	return stats.Normalize(freqs)
}

// Run is CollectFreq followed by EstimateFreq — the simulation entry
// point, named identically across all protocol variants.
func (d *FreqDAP) Run(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error) {
	col, err := d.CollectFreq(r, cats, poisonCats, gamma)
	if err != nil {
		return nil, err
	}
	return d.EstimateFreq(col)
}

// RunAdv is CollectFreqAdv followed by EstimateFreq — the simulation
// entry point for registry-selected categorical adversaries.
func (d *FreqDAP) RunAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := d.CollectFreqAdv(r, cats, adv, gamma)
	if err != nil {
		return nil, err
	}
	return d.EstimateFreq(col)
}

// OstrichFreq estimates frequencies ignoring Byzantine users: per-group
// unbiased k-RR estimation (negative estimates floored at zero) aggregated
// with the same weights at m̂_t = 0.
func (d *FreqDAP) OstrichFreq(col *FreqCollection) ([]float64, error) {
	h := d.H()
	if col == nil || len(col.Counts) != h {
		return nil, badCollection("collection does not match group layout")
	}
	n := make([]float64, h)
	ests := make([][]float64, h)
	for t, counts := range col.Counts {
		n[t] = stats.Sum(counts)
		ests[t] = d.mechs[t].EstimateFreq(counts)
		for j, f := range ests[t] {
			if f < 0 {
				ests[t][j] = 0
			}
		}
	}
	_, w, _, err := d.weigh(n, make([]float64, h))
	if err != nil {
		return nil, err
	}
	return mixFreqs(w, ests), nil
}
