package bench

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Fig8 reproduces Fig. 8, the Square Wave extension (§V-D):
//
//	(a) Wasserstein distance of distribution estimation on Beta(2,5) for
//	    EMF/EMF*/CEMF* vs Ostrich (plain EMS), γ = 0.25, SW-top poison;
//	(b) |γ̂−γ| for SW with respect to ε on Beta(2,5) and Beta(5,2);
//	(c)(d) MSE of SW_EMF/SW_EMF*/SW_CEMF* vs Ostrich and Trimming with
//	    poison on [1+b/2, 1+b].
//
// Paper shapes: the proposed schemes improve the Wasserstein distance by
// at least ~10% over Ostrich; γ̂ sharpens as ε shrinks; the SW DAP
// schemes win the MSE comparison in most cases.
func Fig8(cfg Config) ([]*Table, error) {
	epsListA := []float64{0.0625, 0.125, 0.25, 0.5, 1, 2}
	// Raw Beta values on [0,1] — SW's native input domain.
	betas := []struct {
		name string
		w    load
	}{
		{"Beta(2,5)", load{values: rawBeta(cfg, 2, 5), adv: attack.SWTop{}, gamma: 0.25}},
		{"Beta(5,2)", load{values: rawBeta(cfg, 5, 2), adv: attack.SWTop{}, gamma: 0.25}},
	}
	beta25 := betas[0].w

	// Panel (a): distribution estimation quality.
	a := panel{
		title:  "Fig. 8(a): Wasserstein distance of distribution estimation — Beta(2,5), SW, γ=0.25",
		header: append([]string{"Scheme"}, mapStrings(epsListA, epsLabel)...),
	}
	recons := []core.SWSingle{
		{Scheme: core.SchemeEMF}, {Scheme: core.SchemeEMFStar}, {Scheme: core.SchemeCEMFStar}, {IgnorePoison: true},
	}
	for si, name := range []string{"EMF", "EMF*", "CEMF*", "Ostrich"} {
		var jobs []*job
		for ei, eps := range epsListA {
			s := recons[si]
			s.Eps, s.EMFMaxIter = eps, cfg.EMFMaxIter
			jobs = append(jobs, cfg.code(cfg.Seed+uint64(0x8A00+si*16+ei), func(r *rand.Rand) (float64, error) {
				reports, err := beta25.sw(r, eps)
				if err != nil {
					return 0, err
				}
				xhat, _, err := s.Reconstruct(reports)
				if err != nil {
					return 0, err
				}
				trueHist := stats.Histogram(beta25.values, 0, 1, len(xhat)).Normalized()
				return stats.Wasserstein1(xhat, trueHist, 1/float64(len(xhat))), nil
			}))
		}
		a.rows = append(a.rows, line([]string{name}, 0, jobs...))
	}

	// Panel (b): γ̂ accuracy for SW.
	b := panel{
		title:  "Fig. 8(b): |γ̂−γ| for SW vs ε, γ=0.25, Poi[1+b/2,1+b]",
		header: append([]string{"Dataset"}, mapStrings(epsListA, epsLabel)...),
	}
	for di, it := range betas {
		var jobs []*job
		for ei, eps := range epsListA {
			jobs = append(jobs, cfg.code(cfg.Seed+uint64(0x8B00+di*16+ei), func(r *rand.Rand) (float64, error) {
				reports, err := it.w.sw(r, eps)
				if err != nil {
					return 0, err
				}
				pr, err := probe(sw.MustNew(eps), reports, 0.5, emf.Config{Tol: emf.PaperTol(eps), MaxIter: cfg.EMFMaxIter, Smooth: true})
				if err != nil {
					return 0, err
				}
				return absErr(0.25)(pr.Chosen().Gamma()), nil
			}))
		}
		b.rows = append(b.rows, line([]string{it.name}, 0, jobs...))
	}

	// Panels (c)(d): SW DAP mean-estimation MSE; every row collects on its
	// own.
	epsListC := []float64{0.25, 0.5, 1, 1.5, 2}
	panels := []panel{a, b}
	for pi, it := range betas {
		truth := stats.Mean(it.w.values)
		t := panel{
			title:  fmt.Sprintf("Fig. 8(%c): MSE vs ε — %s, SW, Poi[1+b/2,1+b], γ=0.25", 'c'+pi, it.name),
			header: append([]string{"Scheme"}, mapStrings(epsListC, epsLabel)...),
		}
		seed := func(si, ei int) uint64 { return cfg.Seed + uint64(0x8C00+pi*1000+si*16+ei) }
		for si, sc := range core.Schemes() {
			var jobs []*job
			for ei, eps := range epsListC {
				est, err := build(cfg.spec(core.DistributionTask(), eps, core.WithScheme(sc)))
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, cfg.specs(seed(si, ei), est, it.w, meanErr(truth)))
			}
			t.rows = append(t.rows, line([]string{"SW_" + sc.String()}, 0, jobs...))
		}
		for k, name := range []string{"Ostrich", "Trimming"} {
			si := len(core.Schemes()) + k
			var jobs []*job
			for ei, eps := range epsListC {
				jobs = append(jobs, cfg.code(seed(si, ei), func(r *rand.Rand) (float64, error) {
					est, err := swOstrich(it.w, r, eps, cfg.EMFMaxIter, name == "Trimming")
					return sq(est, truth), err
				}))
			}
			t.rows = append(t.rows, line([]string{name}, 0, jobs...))
		}
		panels = append(panels, t)
	}
	return run(cfg, panels...)
}

// rawBeta draws cfg.N Beta(a,b) samples on [0,1].
func rawBeta(cfg Config, a, b float64) []float64 {
	r := rng.Split(cfg.Seed, uint64(0xBE7A)+uint64(a)*10+uint64(b))
	out := make([]float64, cfg.N)
	for i := range out {
		out[i] = rng.Beta(r, a, b)
	}
	return out
}

// swOstrich estimates the mean with plain EMS on a single-group SW
// collection; with trim it first removes the top 50% of the reports (the
// Fig. 8 Trimming baseline).
func swOstrich(w load, r *rand.Rand, eps float64, maxIter int, trim bool) (float64, error) {
	reports, err := w.sw(r, eps)
	if err != nil {
		return 0, err
	}
	if trim {
		sort.Float64s(reports)
		reports = reports[:len(reports)/2]
	}
	s := &core.SWSingle{Eps: eps, IgnorePoison: true, EMFMaxIter: maxIter}
	xhat, centers, err := s.Reconstruct(reports)
	if err != nil {
		return 0, err
	}
	return stats.Clamp(stats.HistMean(xhat, centers), 0, 1), nil
}
