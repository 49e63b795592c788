package bench

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
)

// fig6Eps is the paper's ε axis for the mean-estimation MSE figures.
var fig6Eps = []float64{0.25, 0.5, 1, 1.5, 2}

// Fig6 reproduces Fig. 6: MSE of mean estimation for DAP_EMF, DAP_EMF*,
// DAP_CEMF*, Ostrich and Trimming across the four datasets, the four
// poison ranges and ε ∈ {1/4, 1/2, 1, 3/2, 2} (γ = 0.25, uniform poison,
// ε₀ = 1/16). One table per (dataset, range) pair matching the paper's
// 16 sub-figures.
//
// Paper shapes to expect: all DAP schemes beat Ostrich and Trimming by
// orders of magnitude; Trimming is worst in most cases; DAP_CEMF* usually
// leads; EMF may lose to Ostrich at large ε when poison sits near O
// (sub-figures j, k, n).
func Fig6(cfg Config) ([]*Table, error) {
	var panels []panel
	for di, dsName := range dataset.Names() {
		ds, err := loadDataset(cfg, dsName)
		if err != nil {
			return nil, err
		}
		for ri, label := range rangeLabels {
			adv := attack.NewBBA(mustRange(label), attack.DistUniform)
			var cols []column
			for _, eps := range fig6Eps {
				cols = append(cols, column{eps, load{values: ds.Values, adv: adv, gamma: 0.25}})
			}
			rows, err := cfg.mseRows(ds.TrueMean(), cols, cfg.Seed+uint64(di*1000+ri*100), 10)
			if err != nil {
				return nil, err
			}
			panels = append(panels, panel{
				title:  fmt.Sprintf("Fig. 6: MSE vs ε — %s, Poi%s (γ=0.25)", dsName, label),
				header: append([]string{"Scheme"}, mapStrings(fig6Eps, epsLabel)...),
				rows:   rows,
			})
		}
	}
	return run(cfg, panels...)
}

// column is one column of a mean-task MSE panel: the budget and the load.
type column struct {
	eps float64
	w   load
}

// mseRows returns the rows of a mean-task MSE panel over cols. The DAP
// scheme rows share one collection per column, at seed base+ci. With
// stride > 0 the Ostrich and Trimming defense rows follow, each on its own
// collection at seed base+(s+k)·stride+ci, where s is the number of
// schemes and k = 0 for Ostrich, 1 for Trimming.
func (cfg Config) mseRows(truth float64, cols []column, base uint64, stride int) ([]row, error) {
	var dap []*job
	comparators := [][]*job{nil, nil}
	s := len(core.Schemes())
	for ci, c := range cols {
		ests, err := perScheme(cfg.spec(core.MeanTask(), c.eps))
		if err != nil {
			return nil, err
		}
		dap = append(dap, cfg.specs(base+uint64(ci), ests, c.w, meanErr(truth)))
		if stride == 0 {
			continue
		}
		for k, name := range []string{"ostrich", "trimming"} {
			def, err := build(cfg.spec(core.MeanTask(), c.eps, core.WithDefense(defense.Spec{Name: name})))
			if err != nil {
				return nil, err
			}
			comparators[k] = append(comparators[k], cfg.specs(base+uint64((s+k)*stride+ci), def, c.w, meanErr(truth)))
		}
	}
	rows := schemeRows("DAP_", dap)
	if stride > 0 {
		rows = append(rows, line([]string{"Ostrich"}, 0, comparators[0]...), line([]string{"Trimming"}, 0, comparators[1]...))
	}
	return rows, nil
}
