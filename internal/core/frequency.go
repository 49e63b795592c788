package core

import (
	"fmt"
	"math"
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
	p      FreqParams
	groups []Group
	mechs  []*krr.Mechanism
}

// NewFreqDAP validates parameters and precomputes the group layout.
func NewFreqDAP(p FreqParams) (*FreqDAP, error) {
	if err := validateBudgets(p.Eps, p.Eps0); err != nil {
		return nil, err
	}
	if p.K < 2 {
		return nil, badSpec("categorical protocol needs K >= 2")
	}
	h := groupCount(p.Eps, p.Eps0)
	d := &FreqDAP{p: p, groups: make([]Group, h), mechs: make([]*krr.Mechanism, h)}
	for t := 0; t < h; t++ {
		eps := p.Eps / math.Pow(2, float64(t))
		mech, err := krr.New(eps, p.K)
		if err != nil {
			return nil, fmt.Errorf("core: krr group %d: %w", t, err)
		}
		d.groups[t] = Group{Index: t, Eps: eps, Reports: 1 << t}
		d.mechs[t] = mech
	}
	return d, nil
}

// H returns the group count.
func (d *FreqDAP) H() int { return len(d.groups) }

// Groups returns the group layout.
func (d *FreqDAP) Groups() []Group { return append([]Group(nil), d.groups...) }

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
	n := len(cats)
	if n < d.H() {
		return nil, badCollection("fewer users than groups")
	}
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("%w: gamma must lie in [0,1)", ErrDomain)
	}
	if adv == nil {
		adv = attack.None{}
	}
	nByz := int(math.Round(gamma * float64(n)))
	// One shuffle provides both the Byzantine subset (the fixed ids
	// {0..nByz−1}, scattered by the shuffle; their categories are never
	// reported) and the group assignment (contiguous chunks), mirroring
	// DAP.Collect — per-group Byzantine counts stay hypergeometric.
	perm := r.Perm(n)
	h := d.H()
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

// FreqEstimate is the collector's categorical output.
type FreqEstimate struct {
	// Freqs is the final normal-user frequency estimate (sums to one).
	Freqs []float64
	// Gamma is the Byzantine proportion probed at the smallest budget.
	Gamma float64
	// PoisonCats is the probed poisoned category set.
	PoisonCats []int
	// GroupFreqs are the per-group frequency estimates.
	GroupFreqs [][]float64
	// Weights are the aggregation weights.
	Weights []float64
	// Solver telemetry: total EM-map evaluations, rejected SQUAREM
	// extrapolations and warm-started runs (category probing excluded from
	// WarmHits — the recursive probe always starts cold).
	EMFIters, EMFRestarts, WarmHits int
	// Converged reports whether every solver run met its tolerance.
	Converged bool
	// Warm carries the per-group fits for seeding the next estimate.
	Warm *WarmState
}

// EstimateFreq runs the collector side.
func (d *FreqDAP) EstimateFreq(col *FreqCollection) (*FreqEstimate, error) {
	return d.EstimateFreqWarm(col, nil)
}

// EstimateFreqWarm is EstimateFreq with the per-group solver runs seeded
// from a previous estimate's fits (tolerance-equivalent; see WarmState).
// The recursive category probe always runs cold: its poison sets shrink
// as the recursion descends, so no previous fit matches them reliably.
func (d *FreqDAP) EstimateFreqWarm(col *FreqCollection, warm *WarmState) (*FreqEstimate, error) {
	h := d.H()
	if col == nil || len(col.Counts) != h {
		return nil, badCollection("collection does not match group layout")
	}
	matrices := make([]*emf.Matrix, h)
	for t := 0; t < h; t++ {
		if len(col.Counts[t]) != d.p.K {
			return nil, badCollection("group %d counts have wrong arity", t)
		}
		matrices[t] = emf.BuildCategoricalCached(d.mechs[t])
	}
	// Probe poisoned categories and γ̂ at the smallest budget.
	probeSet, probeRes, err := emf.ProbeCategories(matrices[h-1], col.Counts[h-1], d.cfg(h-1))
	if err != nil {
		return nil, err
	}
	gammaGlobal := probeRes.Gamma()

	est := &FreqEstimate{
		Gamma:      gammaGlobal,
		PoisonCats: probeSet,
		GroupFreqs: make([][]float64, h),
	}
	var diag emfDiag
	diag.observe(probeRes)
	b := make([]float64, h)
	nHat := make([]float64, h)
	bases := make([]*emf.Result, h)
	finals := make([]*emf.Result, h)
	diags := make([]emfDiag, h)
	// The per-group EM fits are independent; run them concurrently (each
	// writes only its own index, so the output is order-independent).
	if err := forEachGroup(h, func(t int) (err error) {
		m := matrices[t]
		cfg := d.cfg(t)
		wBase, wFinal := warm.base(t), warm.final(t)
		if t == h-1 {
			// The category probe just fitted this group with the chosen
			// poison set — the freshest possible seed.
			wBase = probeRes
			if wFinal == nil {
				wFinal = probeRes
			}
		}
		var res, base *emf.Result
		var gammaT float64
		switch d.p.Scheme {
		case SchemeEMFStar:
			// The unconstrained base fit is unused under EMF*; skip it.
			cfg.Init = wFinal
			if res, err = emf.RunConstrained(m, col.Counts[t], probeSet, gammaGlobal, cfg); err != nil {
				return err
			}
			gammaT = gammaGlobal
		case SchemeCEMFStar:
			factor := d.p.SuppressFactor
			if factor <= 0 {
				factor = 0.5
			}
			cfg.Init = wBase
			if base, err = emf.Run(m, col.Counts[t], probeSet, cfg); err != nil {
				return err
			}
			if res, err = emf.RunConcentrated(m, col.Counts[t], base, gammaGlobal, factor, d.cfg(t)); err != nil {
				return err
			}
			gammaT = res.Gamma()
		default:
			cfg.Init = wBase
			if base, err = emf.Run(m, col.Counts[t], probeSet, cfg); err != nil {
				return err
			}
			res = base
			gammaT = base.Gamma()
		}
		bases[t], finals[t] = base, res
		diags[t].observe(res)
		if base != nil && base != res {
			diags[t].observe(base)
		}
		est.GroupFreqs[t] = stats.Normalize(res.X)
		nt := stats.Sum(col.Counts[t])
		mHat := gammaT * nt
		if mHat > 0.95*nt {
			mHat = 0.95 * nt
		}
		nHat[t] = (nt - mHat) * d.groups[t].Eps / d.p.Eps
		b[t] = nHat[t] * d.mechs[t].WorstCaseVar()
		return nil
	}); err != nil {
		return nil, err
	}
	for t := range diags {
		diag.merge(diags[t])
	}
	est.EMFIters, est.EMFRestarts, est.WarmHits = diag.iters, diag.restarts, diag.warmHits
	est.Converged = !diag.diverged
	est.Warm = &WarmState{bases: bases, finals: finals}
	w, err := OptimalWeights(b, nHat, d.p.WeightMode)
	if err != nil {
		return nil, err
	}
	est.Weights = w
	freqs := make([]float64, d.p.K)
	for t := 0; t < h; t++ {
		for j := range freqs {
			freqs[j] += w[t] * est.GroupFreqs[t][j]
		}
	}
	est.Freqs = stats.Normalize(freqs)
	return est, nil
}

// Run is CollectFreq followed by EstimateFreq — the simulation entry
// point, named identically across all protocol variants.
func (d *FreqDAP) Run(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*FreqEstimate, error) {
	col, err := d.CollectFreq(r, cats, poisonCats, gamma)
	if err != nil {
		return nil, err
	}
	return d.EstimateFreq(col)
}

// RunAdv is CollectFreqAdv followed by EstimateFreq — the simulation
// entry point for registry-selected categorical adversaries.
func (d *FreqDAP) RunAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*FreqEstimate, error) {
	col, err := d.CollectFreqAdv(r, cats, adv, gamma)
	if err != nil {
		return nil, err
	}
	return d.EstimateFreq(col)
}

// OstrichFreq estimates frequencies ignoring Byzantine users: per-group
// unbiased k-RR estimation aggregated with the same weights.
func (d *FreqDAP) OstrichFreq(col *FreqCollection) ([]float64, error) {
	h := d.H()
	if col == nil || len(col.Counts) != h {
		return nil, badCollection("collection does not match group layout")
	}
	b := make([]float64, h)
	nHat := make([]float64, h)
	ests := make([][]float64, h)
	for t := 0; t < h; t++ {
		ests[t] = d.mechs[t].EstimateFreq(col.Counts[t])
		nt := stats.Sum(col.Counts[t])
		nHat[t] = nt * d.groups[t].Eps / d.p.Eps
		b[t] = nHat[t] * d.mechs[t].WorstCaseVar()
	}
	w, err := OptimalWeights(b, nHat, d.p.WeightMode)
	if err != nil {
		return nil, err
	}
	freqs := make([]float64, d.p.K)
	for t := 0; t < h; t++ {
		for j := range freqs {
			f := ests[t][j]
			if f < 0 {
				f = 0
			}
			freqs[j] += w[t] * f
		}
	}
	return stats.Normalize(freqs), nil
}

func (d *FreqDAP) cfg(t int) emf.Config {
	return emf.Config{Tol: emf.PaperTol(d.groups[t].Eps), MaxIter: d.p.EMFMaxIter, Accelerate: true}
}
