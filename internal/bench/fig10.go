package bench

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dataset"
)

// Fig10 reproduces Fig. 10: the evasion attack of §V-D. A fraction a of
// the poison reports sit at −C/2 to mislead the side probe while the
// remaining (1−a) attack uniformly on [C/2, C]; ε = 1/2, γ = 0.25. One
// table per dataset with the three DAP schemes as rows and
// a ∈ {0, 0.1, …, 0.5} as columns.
//
// Paper shape: MSE stays low for small a, spikes once a crosses the
// ~20–30% threshold where the side probe flips, then declines again as
// the evasive mass starves the true attack (Eq. 20).
func Fig10(cfg Config) ([]*Table, error) {
	as := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	header := append([]string{"Scheme"}, mapStrings(as, func(v float64) string { return fmt.Sprintf("a=%.1f", v) })...)
	var panels []panel
	for di, name := range dataset.Names() {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		var cols []column
		for _, a := range as {
			cols = append(cols, column{0.5, load{values: ds.Values, adv: &attack.Evasion{A: a}, gamma: 0.25}})
		}
		rows, err := cfg.mseRows(ds.TrueMean(), cols, cfg.Seed+uint64(0xA000+di*1000), 0)
		if err != nil {
			return nil, err
		}
		panels = append(panels, panel{
			title:  fmt.Sprintf("Fig. 10: MSE vs evasive fraction a — %s, ε=1/2, γ=0.25", name),
			header: header,
			rows:   rows,
		})
	}
	return run(cfg, panels...)
}
