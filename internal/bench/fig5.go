package bench

import (
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/emf"
	"repro/internal/ldp/pm"
)

// Fig5 reproduces Fig. 5: accuracy of the Byzantine proportion estimated
// by EMF with respect to ε.
//
//	(a) |γ̂−γ| for γ = 0.1 across the four poison ranges (Taxi);
//	(b) the same for γ = 0.4;
//	(c) the false-positive rate γ̂ when no attack exists (all datasets);
//	(d) γ̂ under the input manipulation attack, γ = 0.25 (all datasets).
//
// The paper's shapes: (a)(b) errors shrink as ε → 0 (Theorem 3); (c) the
// false-positive rate falls to 0.02–0.04 at ε = 1/16; (d) IMA hides from
// EMF, leaving γ̂ ≈ 0.03–0.04 regardless of γ.
func Fig5(cfg Config) ([]*Table, error) {
	epsList := []float64{0.0625, 0.125, 0.25, 0.5, 1, 2}
	header := append([]string{"Series"}, mapStrings(epsList, epsLabel)...)
	taxi, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	// series is one row over ε: column ei probes w at seed cfg.Seed+stream+ei.
	series := func(label string, w load, stream uint64, score func(float64) float64) row {
		var jobs []*job
		for ei, eps := range epsList {
			jobs = append(jobs, cfg.probeJob(cfg.Seed+stream+uint64(ei), w, eps, score))
		}
		return line([]string{label}, 0, jobs...)
	}
	a := panel{title: "Fig. 5(a): |γ̂−γ| vs ε, γ=0.1 (Taxi)", header: header}
	b := panel{title: "Fig. 5(b): |γ̂−γ| vs ε, γ=0.4 (Taxi)", header: header}
	for ri, label := range rangeLabels {
		adv := attack.NewBBA(mustRange(label), attack.DistUniform)
		a.rows = append(a.rows, series("Poi"+label, load{values: taxi.Values, adv: adv, gamma: 0.1}, uint64(ri*100), absErr(0.1)))
		b.rows = append(b.rows, series("Poi"+label, load{values: taxi.Values, adv: adv, gamma: 0.4}, uint64(ri*100), absErr(0.4)))
	}
	c := panel{title: "Fig. 5(c): false-positive γ̂ vs ε₀, no attack", header: header}
	d := panel{title: "Fig. 5(d): γ̂ under IMA(g=1), γ=0.25", header: header}
	for di, name := range dataset.Names() {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		c.rows = append(c.rows, series(name, load{values: ds.Values, adv: attack.None{}}, uint64(0xC0+di*10), absErr(0)))
		// Panel (d) reports γ̂ itself.
		d.rows = append(d.rows, series(name, load{values: ds.Values, adv: &attack.IMA{G: 1}, gamma: 0.25}, uint64(0xD0+di*10),
			func(gh float64) float64 { return gh }))
	}
	return run(cfg, a, b, c, d)
}

// absErr scores γ̂ by |γ̂−γ|.
func absErr(gamma float64) func(float64) float64 {
	return func(gh float64) float64 { return math.Abs(gh - gamma) }
}

// probeJob is a Fig. 5 cell: each trial probes one single-group PM
// collection of w at budget eps (with SQUAREM) and scores the chosen
// side's γ̂.
func (cfg Config) probeJob(seed uint64, w load, eps float64, score func(float64) float64) *job {
	return cfg.code(seed, func(r *rand.Rand) (float64, error) {
		reports, err := w.pm(r, eps)
		if err != nil {
			return 0, err
		}
		pr, err := probe(pm.MustNew(eps), reports, 0, emf.Config{Tol: emf.PaperTol(eps), MaxIter: cfg.EMFMaxIter, Accelerate: true})
		if err != nil {
			return 0, err
		}
		return score(pr.Chosen().Gamma()), nil
	})
}

// Fig5Cell evaluates one Fig. 5(a)-style cell — the Monte-Carlo average of
// |γ̂−γ| for Poi[C/2,C] on Taxi at the given ε and γ — exported so the
// repository benchmarks can track the cost of a single cell of the
// hottest experiment.
func Fig5Cell(cfg Config, eps, gamma float64) (float64, error) {
	cfg = cfg.withDefaults()
	taxi, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return 0, err
	}
	w := load{values: taxi.Values, adv: attack.NewBBA(mustRange("[C/2,C]"), attack.DistUniform), gamma: gamma}
	v, err := cfg.probeJob(cfg.Seed, w, eps, absErr(gamma)).run()
	if err != nil {
		return 0, err
	}
	return v[0], nil
}
