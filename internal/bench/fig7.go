package bench

import (
	"fmt"

	"repro/internal/attack"
)

// Fig7 reproduces Fig. 7: robustness of the MSE on Taxi at ε = 1.
//
//	(a)(b) MSE vs the Byzantine proportion γ ∈ {5%, 10%, 30%, 40%} for
//	       Poi[O,C/2] and Poi[C/2,C];
//	(c)(d) MSE vs the poison-value distribution {Uniform, Gaussian,
//	       Beta(1,6), Beta(6,1)} at γ = 0.25 for the same two ranges.
//
// Paper shapes: DAP schemes stay flat and low as γ grows; Ostrich
// degrades sharply; the proposed schemes win under every poison
// distribution, with DAP_EMF* overtaking DAP_CEMF* under Gaussian poison.
func Fig7(cfg Config) ([]*Table, error) {
	ds, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	ranges := []string{"[O,C/2]", "[C/2,C]"}
	var panels []panel
	add := func(title string, header []string, cols []column, base uint64) error {
		rows, err := cfg.mseRows(ds.TrueMean(), cols, base, 16)
		panels = append(panels, panel{title: title, header: append([]string{"Scheme"}, header...), rows: rows})
		return err
	}

	// Panels (a)(b): MSE vs γ.
	for ri, label := range ranges {
		adv := attack.NewBBA(mustRange(label), attack.DistUniform)
		var cols []column
		for _, gamma := range []float64{0.05, 0.10, 0.30, 0.40} {
			cols = append(cols, column{1, load{values: ds.Values, adv: adv, gamma: gamma}})
		}
		if err := add(fmt.Sprintf("Fig. 7(%c): MSE vs γ — Taxi, Poi%s, ε=1", 'a'+ri, label),
			[]string{"5%", "10%", "30%", "40%"}, cols, cfg.Seed+uint64(0x7000+ri*100)); err != nil {
			return nil, err
		}
	}

	// Panels (c)(d): MSE vs poison distribution at γ = 0.25; the
	// adversary changes per column.
	for ri, label := range ranges {
		var cols []column
		for _, dist := range attack.Dists() {
			cols = append(cols, column{1, load{values: ds.Values, adv: attack.NewBBA(mustRange(label), dist), gamma: 0.25}})
		}
		if err := add(fmt.Sprintf("Fig. 7(%c): MSE vs poison distribution — Taxi, Poi%s, ε=1, γ=0.25", 'c'+ri, label),
			[]string{"Uniform", "Gaussian", "Beta(1,6)", "Beta(6,1)"}, cols, cfg.Seed+uint64(0x7C00+ri*100)); err != nil {
			return nil, err
		}
	}
	return run(cfg, panels...)
}
