package bench

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

// kmSubsets is the number of sampled subsets for the k-means defense (the
// paper uses 10⁶; a few hundred already stabilizes the clustering and
// keeps laptop-scale runs fast).
const kmSubsets = 500

// Fig9 reproduces Fig. 9:
//
//	(a) DAP vs the k-means-based defense [38] under BBA on Taxi
//	    (Poi[C/2,C], γ = 0.25) across ε and sampling rates β;
//	(b) the input manipulation attack on Taxi (γ = 0.25, ε = 1): the
//	    EMF-integrated k-means defense vs plain k-means for poison inputs
//	    g ∈ {−1, 1, 0} across sampling rates;
//	(c)(d) frequency estimation on COVID-19 under k-RR with poison
//	    injected into category 10 and categories 10–12.
//
// Paper shapes: DAP beats the k-means family by orders of magnitude in
// (a); the EMF integration improves plain k-means by ~30% in (b); in
// (c)(d) Ostrich's MSE stays flat near 0.1 while DAP's drops with ε.
func Fig9(cfg Config) ([]*Table, error) {
	taxi, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	truth := taxi.TrueMean()
	bba := load{values: taxi.Values, adv: attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), gamma: 0.25}

	// Panel (a): DAP vs k-means under BBA.
	epsList := []float64{0.25, 0.5, 1, 1.5, 2}
	var cols []column
	for _, eps := range epsList {
		cols = append(cols, column{eps, bba})
	}
	rows, err := cfg.mseRows(truth, cols, cfg.Seed+0x9A00, 0)
	if err != nil {
		return nil, err
	}
	a := panel{
		title:  "Fig. 9(a): MSE vs ε — DAP vs k-means defense, Taxi, Poi[C/2,C], γ=0.25",
		header: append([]string{"Scheme"}, mapStrings(epsList, epsLabel)...),
		rows:   rows,
	}
	betas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for bi, beta := range betas {
		var jobs []*job
		for ei, eps := range epsList {
			jobs = append(jobs, cfg.defended(cfg.Seed+uint64(0x9B00+bi*16+ei), bba, eps, truth,
				&defense.KMeansDefense{Subsets: kmSubsets, Rate: beta}))
		}
		a.rows = append(a.rows, line([]string{fmt.Sprintf("K-means(β=%.1f)", beta)}, 0, jobs...))
	}

	// Panel (b): IMA — EMF-based integration vs plain k-means.
	b := panel{
		title:  "Fig. 9(b): MSE vs sampling rate β — IMA on Taxi, γ=0.25, ε=1",
		header: append([]string{"Scheme"}, mapStrings(betas, func(v float64) string { return fmt.Sprintf("%.1f", v) })...),
	}
	const imaEps = 1.0
	mech := pm.MustNew(imaEps)
	din, dprime := emf.BucketCounts(cfg.N, mech.C())
	matrix, err := emf.BuildNumericCached(mech, din, dprime)
	if err != nil {
		return nil, err
	}
	gs := []float64{-1, 1, 0}
	ima := func(g float64) load { return load{values: taxi.Values, adv: &attack.IMA{G: g}, gamma: 0.25} }
	emfCfg := emf.Config{Tol: emf.PaperTol(imaEps), MaxIter: cfg.EMFMaxIter, Accelerate: true}
	for gi, g := range gs {
		// EMF-based: no β dependence; one cell fills every column.
		j := cfg.defended(cfg.Seed+uint64(0x9C00+gi), ima(g), imaEps, truth, &defense.EMFKMeans{Matrix: matrix, Config: emfCfg})
		b.rows = append(b.rows, line([]string{fmt.Sprintf("EMF-based(g=%g)", g)}, 0, slices.Repeat([]*job{j}, len(betas))...))
	}
	for gi, g := range gs {
		var jobs []*job
		for bi, beta := range betas {
			jobs = append(jobs, cfg.defended(cfg.Seed+uint64(0x9D00+gi*16+bi), ima(g), imaEps, truth,
				&defense.KMeansDefense{Subsets: kmSubsets, Rate: beta}))
		}
		b.rows = append(b.rows, line([]string{fmt.Sprintf("K-means(g=%g)", g)}, 0, jobs...))
	}

	// Panels (c)(d): categorical frequency estimation on COVID-19; the
	// scheme rows of each ε column share one categorical collection.
	cov := dataset.COVID19()
	cats := cov.Sample(rng.Split(cfg.Seed, 0x9), cfg.N)
	freqs := cov.Freqs()
	panels := []panel{a, b}
	for pi, poisonCats := range [][]int{{10}, {10, 11, 12}} {
		w := load{cats: cats, adv: &attack.Targeted{Cats: poisonCats}, gamma: 0.25}
		var dap, ostrich []*job
		for ei, eps := range epsList {
			ests, err := perScheme(cfg.spec(core.FrequencyTask(cov.K()), eps))
			if err != nil {
				return nil, err
			}
			dap = append(dap, cfg.specs(cfg.Seed+uint64(0x9E00+pi*1000+ei), ests, w, freqErr(freqs)))
			// Ostrich over the same layout (ests[0] is the EMF estimator).
			f := ests[0].(catCollector)
			ostrich = append(ostrich, cfg.code(cfg.Seed+uint64(0x9F00+pi*1000+ei), func(r *rand.Rand) (float64, error) {
				col, err := f.CollectFreq(r, cats, w.adv, w.gamma)
				if err != nil {
					return 0, err
				}
				est, err := f.OstrichFreq(col)
				if err != nil {
					return 0, err
				}
				return stats.MSEVec(est, freqs), nil
			}))
		}
		panels = append(panels, panel{
			title:  fmt.Sprintf("Fig. 9(%c): frequency MSE vs ε — COVID-19, poison cats %v, γ=0.25", 'c'+pi, poisonCats),
			header: append([]string{"Scheme"}, mapStrings(epsList, epsLabel)...),
			rows:   append(schemeRows("DAP_", dap), line([]string{"Ostrich"}, 0, ostrich...)),
		})
	}
	return run(cfg, panels...)
}

// defended is the job of a comparator defense that exists only as code
// (k-means, EMF-integrated k-means, isolation forest): each trial
// collects single-group PM reports of w at budget eps and scores def's
// estimate, clamped to [−1, 1]. def draws from the trial's rng, which a
// defense spec row (seeded from the reports) cannot reproduce.
func (cfg Config) defended(seed uint64, w load, eps, truth float64, def interface {
	Estimate(r *rand.Rand, reports []float64) (float64, error)
}) *job {
	return cfg.code(seed, func(r *rand.Rand) (float64, error) {
		reports, err := w.pm(r, eps)
		if err != nil {
			return 0, err
		}
		est, err := def.Estimate(r, reports)
		if err != nil {
			return 0, err
		}
		return sq(stats.Clamp(est, -1, 1), truth), nil
	})
}
