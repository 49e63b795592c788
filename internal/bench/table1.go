package bench

import (
	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Table1 reproduces Table I: the variance of the EMF-reconstructed
// normal-user histogram x̂ on the Taxi dataset, probing with the poison
// components on the Left and on the Right of O′ = 0, for the four poison
// ranges and ε ∈ {2, 1/2, 1/4, 1/8, 1/16}. The right side (the truly
// poisoned one) must yield the smaller variance everywhere, which is what
// lets Algorithm 3 pick the side.
//
// Each (range, ε) cell is one probe on its own rng stream, feeding both
// the L and the R row.
func Table1(cfg Config) ([]*Table, error) {
	epsList := []float64{2, 0.5, 0.25, 0.125, 0.0625}
	ds, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	pn := panel{
		title:  "Table I: Variance of reconstructed normal data (Taxi, γ=0.25)",
		header: append([]string{"Poi[l,r]", "Side"}, mapStrings(epsList, epsLabel)...),
	}
	for ri, label := range rangeLabels {
		w := load{values: ds.Values, adv: attack.NewBBA(mustRange(label), attack.DistUniform), gamma: 0.25}
		var jobs []*job
		for ei, eps := range epsList {
			stream := uint64(0x7AB1 + ri*16 + ei)
			jobs = append(jobs, &job{func() ([]float64, error) {
				reports, err := w.pm(rng.Split(cfg.Seed, stream), eps)
				if err != nil {
					return nil, err
				}
				// Unlike Fig. 5's probes, Table I's run without SQUAREM.
				pr, err := probe(pm.MustNew(eps), reports, 0, emf.Config{Tol: emf.PaperTol(eps), MaxIter: cfg.EMFMaxIter})
				if err != nil {
					return nil, err
				}
				return []float64{stats.Variance(pr.Left.X), stats.Variance(pr.Right.X)}, nil
			}})
		}
		pn.rows = append(pn.rows, line([]string{label, "L"}, 0, jobs...), line([]string{label, "R"}, 1, jobs...))
	}
	return run(cfg, pn)
}
