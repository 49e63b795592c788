package bench

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/sim"
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
	trueMean := taxi.TrueMean()
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	p := cfg.newPool()

	// Panel (a): DAP vs k-means under BBA.
	epsList := []float64{0.25, 0.5, 1, 1.5, 2}
	a := &Table{
		Title:  "Fig. 9(a): MSE vs ε — DAP vs k-means defense, Taxi, Poi[C/2,C], γ=0.25",
		Header: append([]string{"Scheme"}, mapStrings(epsList, epsLabel)...),
	}
	schemes := core.Schemes()
	futsA := make([][]*future[float64], len(schemes))
	for si := range schemes {
		futsA[si] = make([]*future[float64], len(epsList))
	}
	// The DAP scheme rows of each ε column share one collection per trial.
	for ei, eps := range epsList {
		daps, err := dapsForSchemes(eps, cfg.EMFMaxIter)
		if err != nil {
			return nil, err
		}
		cell := p.mseSchemes(cfg.Seed+uint64(0x9A00+ei), cfg.Trials, trueMean,
			dapSchemesTrial(daps, taxi.Values, adv, 0.25), len(schemes))
		for si := range cell {
			futsA[si][ei] = cell[si]
		}
	}
	betas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	futsKM := make([][]*future[float64], len(betas))
	for bi, beta := range betas {
		futsKM[bi] = make([]*future[float64], len(epsList))
		for ei, eps := range epsList {
			def := &defense.KMeansDefense{Subsets: kmSubsets, Rate: beta}
			eps := eps
			futsKM[bi][ei] = p.mse(cfg.Seed+uint64(0x9B00+bi*16+ei), cfg.Trials, trueMean,
				func(r *rand.Rand) (float64, error) {
					reports, err := core.CollectPM(r, taxi.Values, eps, adv, 0.25, 0)
					if err != nil {
						return 0, err
					}
					est, err := def.Estimate(r, reports)
					if err != nil {
						return 0, err
					}
					return stats.Clamp(est, -1, 1), nil
				})
		}
	}

	// Panel (b): IMA — EMF-based integration vs plain k-means.
	b := &Table{
		Title:  "Fig. 9(b): MSE vs sampling rate β — IMA on Taxi, γ=0.25, ε=1",
		Header: append([]string{"Scheme"}, mapStrings(betas, func(v float64) string { return fmt.Sprintf("%.1f", v) })...),
	}
	const imaEps = 1.0
	mech := pm.MustNew(imaEps)
	din, dprime := emf.BucketCounts(cfg.N, mech.C())
	matrix, err := emf.BuildNumericCached(mech, din, dprime)
	if err != nil {
		return nil, err
	}
	gs := []float64{-1, 1, 0}
	futsEMF := make([]*future[float64], len(gs))
	for gi, g := range gs {
		ima := &attack.IMA{G: g}
		// EMF-based: no β dependence; one MSE reused across columns.
		futsEMF[gi] = p.mse(cfg.Seed+uint64(0x9C00+gi), cfg.Trials, trueMean,
			func(r *rand.Rand) (float64, error) {
				reports, err := core.CollectPM(r, taxi.Values, imaEps, ima, 0.25, 0)
				if err != nil {
					return 0, err
				}
				def := &defense.EMFKMeans{Matrix: matrix, Config: emf.Config{Tol: emf.PaperTol(imaEps), MaxIter: cfg.EMFMaxIter, Accelerate: true}}
				est, err := def.Estimate(r, reports)
				if err != nil {
					return 0, err
				}
				return stats.Clamp(est, -1, 1), nil
			})
	}
	futsIKM := make([][]*future[float64], len(gs))
	for gi, g := range gs {
		ima := &attack.IMA{G: g}
		futsIKM[gi] = make([]*future[float64], len(betas))
		for bi, beta := range betas {
			def := &defense.KMeansDefense{Subsets: kmSubsets, Rate: beta}
			futsIKM[gi][bi] = p.mse(cfg.Seed+uint64(0x9D00+gi*16+bi), cfg.Trials, trueMean,
				func(r *rand.Rand) (float64, error) {
					reports, err := core.CollectPM(r, taxi.Values, imaEps, ima, 0.25, 0)
					if err != nil {
						return 0, err
					}
					est, err := def.Estimate(r, reports)
					if err != nil {
						return 0, err
					}
					return stats.Clamp(est, -1, 1), nil
				})
		}
	}

	// Panels (c)(d): categorical frequency estimation on COVID-19.
	cov := dataset.COVID19()
	cats := cov.Sample(rng9(cfg), cfg.N)
	trueFreqs := cov.Freqs()
	poisonSets := [][]int{{10}, {10, 11, 12}}
	futsCD := make([][][]*future[float64], len(poisonSets))
	futsOst := make([][]*future[float64], len(poisonSets))
	for pi, poisonCats := range poisonSets {
		futsCD[pi] = make([][]*future[float64], len(schemes))
		for si := range schemes {
			futsCD[pi][si] = make([]*future[float64], len(epsList))
		}
		// The scheme rows of each ε column share one categorical collection
		// per trial, warm-chained like the numeric panels.
		for ei, eps := range epsList {
			fs := make([]catCollector, len(schemes))
			for si, sc := range schemes {
				f, err := build[catCollector](freqSpec(sc, eps, cov.K(), cfg.EMFMaxIter))
				if err != nil {
					return nil, err
				}
				fs[si] = f
			}
			pc := poisonCats
			cell := splitFuture(p, len(schemes), func() ([]float64, error) {
				return sim.MSEVecPer(cfg.Seed+uint64(0x9E00+pi*1000+ei), cfg.Trials, trueFreqs,
					func(r *rand.Rand) ([][]float64, error) {
						col, err := fs[0].CollectFreq(r, cats, &attack.Targeted{Cats: pc}, 0.25)
						if err != nil {
							return nil, err
						}
						out := make([][]float64, len(fs))
						var warm *core.WarmState
						for i, f := range fs {
							est, err := f.EstimateHist(core.WithWarm(context.Background(), warm), col)
							if err != nil {
								return nil, err
							}
							if warm == nil {
								warm = est.Warm
							}
							out[i] = est.Freqs
						}
						return out, nil
					})
			})
			for si := range cell {
				futsCD[pi][si][ei] = cell[si]
			}
		}
		futsOst[pi] = make([]*future[float64], len(epsList))
		for ei, eps := range epsList {
			f, err := build[catCollector](freqSpec(core.SchemeEMF, eps, cov.K(), cfg.EMFMaxIter))
			if err != nil {
				return nil, err
			}
			pc := poisonCats
			futsOst[pi][ei] = p.mseVec(cfg.Seed+uint64(0x9F00+pi*1000+ei), cfg.Trials, trueFreqs,
				func(r *rand.Rand) ([]float64, error) {
					col, err := f.CollectFreq(r, cats, &attack.Targeted{Cats: pc}, 0.25)
					if err != nil {
						return nil, err
					}
					return f.OstrichFreq(col)
				})
		}
	}

	// Collect everything in table order.
	for si, sc := range schemes {
		row, err := collectCells([]string{"DAP_" + sc.String()}, futsA[si], e2s)
		if err != nil {
			return nil, err
		}
		a.Rows = append(a.Rows, row)
	}
	for bi, beta := range betas {
		row, err := collectCells([]string{fmt.Sprintf("K-means(β=%.1f)", beta)}, futsKM[bi], e2s)
		if err != nil {
			return nil, err
		}
		a.Rows = append(a.Rows, row)
	}
	for gi, g := range gs {
		emfBased, err := futsEMF[gi].get()
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("EMF-based(g=%g)", g)}
		for range betas {
			row = append(row, e2s(emfBased))
		}
		b.Rows = append(b.Rows, row)
	}
	for gi, g := range gs {
		row, err := collectCells([]string{fmt.Sprintf("K-means(g=%g)", g)}, futsIKM[gi], e2s)
		if err != nil {
			return nil, err
		}
		b.Rows = append(b.Rows, row)
	}
	tables := []*Table{a, b}
	for pi, poisonCats := range poisonSets {
		t := &Table{
			Title:  fmt.Sprintf("Fig. 9(%c): frequency MSE vs ε — COVID-19, poison cats %v, γ=0.25", 'c'+pi, poisonCats),
			Header: append([]string{"Scheme"}, mapStrings(epsList, epsLabel)...),
		}
		for si, sc := range schemes {
			row, err := collectCells([]string{"DAP_" + sc.String()}, futsCD[pi][si], e2s)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
		row, err := collectCells([]string{"Ostrich"}, futsOst[pi], e2s)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
		tables = append(tables, t)
	}
	return tables, nil
}

func rng9(cfg Config) *rand.Rand {
	return rngSplit(cfg.Seed, 0x9)
}
