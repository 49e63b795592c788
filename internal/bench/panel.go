package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/sim"
)

// Every Monte-Carlo table of the harness is declared the same way: a panel
// is a list of labelled rows over one column axis (ε, γ, attack, a, β, …),
// and each cell of a row is one value of a job — one scheduled
// computation with a seed fixed when the panel is declared. A row runs an
// estimator spec built through core.Build, except for the comparators
// that exist only as code. run schedules every distinct job on one pool
// and fills the tables in row order, so any Workers setting produces
// byte-identical tables.

// job is one scheduled computation; its result holds one value per cell it
// feeds. Cells that name the same job share one run.
type job struct{ run func() ([]float64, error) }

// cell is value i of a job's result, printed with f (e2s when nil).
type cell struct {
	job *job
	i   int
	f   func(float64) string
}

// row is one labelled table row.
type row struct {
	label []string
	cells []cell
}

// panel is one declared table.
type panel struct {
	title  string
	header []string
	rows   []row
}

// line is the row whose column ci is value i of jobs[ci].
func line(label []string, i int, jobs ...*job) row {
	r := row{label: label}
	for _, j := range jobs {
		r.cells = append(r.cells, cell{job: j, i: i})
	}
	return r
}

// schemeRows is one row per estimation scheme, labelled prefix+scheme:
// row i takes value i of every column's job (a shared-collection job over
// the schemes, see Config.specs).
func schemeRows(prefix string, jobs []*job) []row {
	var rows []row
	for i, sc := range core.Schemes() {
		rows = append(rows, line([]string{prefix + sc.String()}, i, jobs...))
	}
	return rows
}

// resolve schedules every distinct job of the panels on one pool and
// returns each cell's value, panel by panel and row by row; the first
// failing cell in that order fails the call.
func resolve(cfg Config, panels []panel) ([][][]float64, error) {
	p := cfg.newPool()
	futs := map[*job]*future[[]float64]{}
	for _, pn := range panels {
		for _, r := range pn.rows {
			for _, c := range r.cells {
				if futs[c.job] == nil {
					futs[c.job] = submit(p, c.job.run)
				}
			}
		}
	}
	vals := make([][][]float64, len(panels))
	for k, pn := range panels {
		for _, r := range pn.rows {
			var vs []float64
			for _, c := range r.cells {
				v, err := futs[c.job].get()
				if err != nil {
					return nil, err
				}
				vs = append(vs, v[c.i])
			}
			vals[k] = append(vals[k], vs)
		}
	}
	return vals, nil
}

// run resolves the panels and prints them as tables.
func run(cfg Config, panels ...panel) ([]*Table, error) {
	vals, err := resolve(cfg, panels)
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, len(panels))
	for k, pn := range panels {
		t := &Table{Title: pn.title, Header: pn.header}
		for ri, r := range pn.rows {
			cells := slices.Clone(r.label)
			for ci, c := range r.cells {
				f := c.f
				if f == nil {
					f = e2s
				}
				cells = append(cells, f(vals[k][ri][ci]))
			}
			t.Rows = append(t.Rows, cells)
		}
		tables[k] = t
	}
	return tables, nil
}

// mc is the job of a Monte-Carlo cell: cfg.Trials trials of fn, trial j on
// rng.Split(seed, j). Each trial returns one loss per cell the job feeds;
// a cell's value is its mean loss, summed in trial order.
func (cfg Config) mc(seed uint64, fn func(r *rand.Rand) ([]float64, error)) *job {
	return &job{func() ([]float64, error) {
		per, err := sim.Repeat(seed, cfg.Trials, fn)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(per[0]))
		for c := range out {
			var s float64
			for _, losses := range per {
				s += losses[c]
			}
			out[c] = s / float64(len(per))
		}
		return out, nil
	}}
}

// code is the Monte-Carlo job of a comparator that exists only as code:
// each trial returns one loss.
func (cfg Config) code(seed uint64, fn func(r *rand.Rand) (float64, error)) *job {
	return cfg.mc(seed, func(r *rand.Rand) ([]float64, error) {
		v, err := fn(r)
		return []float64{v}, err
	})
}

// specs is the Monte-Carlo job of one column of spec rows: each trial runs
// the shared-collection trial of ests on w and scores every estimator's
// result with each metric, metric-major (value m·len(ests)+i is metric m
// of estimator i).
func (cfg Config) specs(seed uint64, ests []core.Estimator, w load, metrics ...func(*core.Result) float64) *job {
	return cfg.mc(seed, func(r *rand.Rand) ([]float64, error) {
		res, err := w.shared(r, ests)
		if err != nil {
			return nil, err
		}
		var out []float64
		for _, m := range metrics {
			for _, x := range res {
				out = append(out, m(x))
			}
		}
		return out, nil
	})
}

// load is the simulated side of a cell: the honest population — numeric
// values, or categories for the frequency task — the adversary and γ.
type load struct {
	values []float64
	cats   []int
	adv    attack.Adversary
	gamma  float64
}

// shared is the shared-collection trial: it collects one set of reports
// with the first estimator and estimates it with every estimator, passing
// the first estimate's warm state to the rest. The schemes' deconvolution
// is identical — only the post-processing differs — so the later
// estimates converge in a handful of EM steps, and sharing the collection
// turns the scheme rows into a paired comparison on identical data. With
// one estimator it is Collect followed by a cold Estimate.
func (w load) shared(r *rand.Rand, ests []core.Estimator) ([]*core.Result, error) {
	var estimate func(context.Context, core.Estimator) (*core.Result, error)
	if w.cats != nil {
		c, ok := ests[0].(catCollector)
		if !ok {
			return nil, fmt.Errorf("bench: the %s estimator has no categorical collection", ests[0].Spec().Task)
		}
		hc, err := c.CollectFreq(r, w.cats, w.adv, w.gamma)
		if err != nil {
			return nil, err
		}
		estimate = func(ctx context.Context, e core.Estimator) (*core.Result, error) { return e.EstimateHist(ctx, hc) }
	} else {
		c, ok := ests[0].(core.Collector)
		if !ok {
			return nil, fmt.Errorf("bench: the %s estimator has no simulation entry point", ests[0].Spec().Task)
		}
		col, err := c.Collect(r, w.values, w.adv, w.gamma)
		if err != nil {
			return nil, err
		}
		estimate = func(ctx context.Context, e core.Estimator) (*core.Result, error) { return e.Estimate(ctx, col) }
	}
	out := make([]*core.Result, len(ests))
	var warm *core.WarmState
	for i, e := range ests {
		res, err := estimate(core.WithWarm(context.Background(), warm), e)
		if err != nil {
			return nil, err
		}
		if warm == nil {
			warm = res.Warm
		}
		out[i] = res
	}
	return out, nil
}
