package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/krr"
	"repro/internal/stats"
)

// freqDAP is the categorical instantiation of the protocol (§V-D,
// Fig. 9(c)(d)): TaskFrequency's estimator. Users hold one of K
// categories, perturb with k-RR, and Byzantine users inject reports
// directly into chosen categories. Poisoned categories are located by
// recursive side probing (Algorithm 3) and their injected mass removed by
// the usual schemes.
type freqDAP struct {
	solver
	mechs []*krr.Mechanism
}

func newFreqDAP(sp Spec) (*freqDAP, error) {
	s, mechs, err := newSolver(sp, false, func(eps float64) (*krr.Mechanism, error) { return krr.New(eps, sp.K) })
	if err != nil {
		return nil, err
	}
	s.matrix = func(t, dprime int) (*emf.Matrix, error) {
		if dprime != sp.K {
			return nil, badCollection("group %d counts have wrong arity", t)
		}
		return emf.BuildCategoricalCached(mechs[t]), nil
	}
	return &freqDAP{solver: s, mechs: mechs}, nil
}

// OutputDomain returns the category domain [0,K).
func (d *freqDAP) OutputDomain(int) ldp.Domain { return ldp.Domain{Lo: 0, Hi: float64(d.sp.K)} }

// CollectFreq simulates the user side under a categorical adversary:
// normal users k-RR-perturb their category once per report slot;
// Byzantine users inject the categories adv emits (as float64 ids over the
// domain [0, K)) directly, no perturbation — the direct-injection threat
// of Fig. 9(c)(d). Reports outside [0, K) or non-integral are rejected
// with ErrDomain. The result holds per-group category counts (no sums),
// the input of EstimateHist; one collection can feed estimators of every
// scheme at the same budget.
func (d *freqDAP) CollectFreq(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*HistCollection, error) {
	n, h := len(cats), d.H()
	adv, nByz, err := simulated(n, h, adv, gamma)
	if err != nil {
		return nil, err
	}
	// One shuffle provides both the Byzantine subset (the fixed ids
	// {0..nByz−1}, scattered by the shuffle; their categories are never
	// reported) and the group assignment (contiguous chunks), mirroring
	// the mean protocol's Collect — per-group Byzantine counts stay
	// hypergeometric.
	perm := r.Perm(n)
	col := &HistCollection{Counts: make([][]float64, h)}
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.Env{Domain: d.OutputDomain(t), Group: t}
		counts := make([]float64, d.sp.K)
		for _, u := range perm[lo:hi] {
			if u < nByz {
				for _, v := range adv.Poison(r, env, g.Reports) {
					c := int(v)
					if v != float64(c) || c < 0 || c >= d.sp.K {
						return nil, fmt.Errorf("core: attack %q emitted %g, not a category in [0,%d): %w",
							adv.Name(), v, d.sp.K, ErrDomain)
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

// Estimate accepts raw per-group category reports encoded as float64
// (the Collection currency shared with the numeric tasks); non-integral
// or out-of-range values are rejected with ErrDomain.
func (d *freqDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != d.H() {
		return nil, badCollection("collection does not match group layout")
	}
	counts := make([][]float64, len(col.Groups))
	for t, reports := range col.Groups {
		counts[t] = make([]float64, d.sp.K)
		for _, v := range reports {
			c := int(v)
			if v != float64(c) || c < 0 || c >= d.sp.K {
				return nil, fmt.Errorf("%w: %g is not a category in [0,%d)", ErrDomain, v, d.sp.K)
			}
			counts[t][c]++
		}
	}
	return d.estimate(counts, WarmFromContext(ctx))
}

// EstimateHist runs the collector side over per-group category counts. A
// warm state attached to ctx seeds the per-group solver runs
// (tolerance-equivalent; see WarmState). The recursive category probe
// always runs cold: its poison sets shrink as the recursion descends, so
// no previous fit matches them reliably (and it is excluded from
// WarmHits).
func (d *freqDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if hc == nil {
		return nil, badCollection("histogram collection does not match group layout")
	}
	return d.estimate(hc.Counts, WarmFromContext(ctx))
}

func (d *freqDAP) estimate(counts [][]float64, warm *WarmState) (*Result, error) {
	matrices, err := d.matrices(&HistCollection{Counts: counts})
	if err != nil {
		return nil, err
	}
	h := d.H()
	// Stage 3: probe poisoned categories and γ̂ at the smallest budget.
	poisonCats, probe, err := emf.ProbeCategories(matrices[h-1], counts[h-1], d.cfg(d.groups[h-1].Eps))
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(probe)
	gamma := probe.Gamma()

	fits, err := d.fitGroups(matrices, counts, func(*emf.Matrix) []int { return poisonCats }, gamma, probe, warm, diag)
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

// RunCats simulates Byzantine users reporting uniformly among poisonCats
// (the attack.Targeted adversary) and estimates cold.
func (d *freqDAP) RunCats(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error) {
	if gamma > 0 && len(poisonCats) == 0 {
		return nil, fmt.Errorf("%w: gamma > 0 requires poison categories", ErrDomain)
	}
	for _, c := range poisonCats {
		if c < 0 || c >= d.sp.K {
			return nil, fmt.Errorf("%w: poison category %d out of range", ErrDomain, c)
		}
	}
	var adv attack.Adversary = attack.None{}
	if len(poisonCats) > 0 {
		adv = &attack.Targeted{Cats: poisonCats}
	}
	return d.RunCatsAdv(r, cats, adv, gamma)
}

// RunCatsAdv is CollectFreq followed by a cold EstimateHist — the
// simulation entry point for registry-selected categorical adversaries.
func (d *freqDAP) RunCatsAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := d.CollectFreq(r, cats, adv, gamma)
	if err != nil {
		return nil, err
	}
	return d.estimate(col.Counts, nil)
}

// OstrichFreq estimates frequencies ignoring Byzantine users: per-group
// unbiased k-RR estimation (negative estimates floored at zero) aggregated
// with the same weights at m̂_t = 0.
func (d *freqDAP) OstrichFreq(col *HistCollection) ([]float64, error) {
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
