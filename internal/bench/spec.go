package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/stats"
)

// SpecSweep evaluates one user-supplied task spec (cfg.Spec, loaded by
// cmd/dapbench -spec) across the paper's γ grid: MSE of the spec's
// estimator against the BBA high-half attack, next to the Ostrich
// comparator on the same collections' budget. Any numeric task kind runs
// (mean, distribution, variance, baseline, or a named defense); frequency
// specs sweep a direct-injection attack on a synthetic Zipf population.
func SpecSweep(cfg Config) ([]*Table, error) {
	if cfg.Spec == nil {
		return nil, errors.New("bench: the spec experiment needs a task spec (dapbench -spec file.json)")
	}
	sp := *cfg.Spec
	if sp.EMFMaxIter == 0 {
		sp.EMFMaxIter = cfg.EMFMaxIter
	}
	sp = sp.Normalize()
	est, err := core.Build(sp)
	if err != nil {
		return nil, err
	}
	// The sweep is one-shot batch simulation — there is no epoch axis, so
	// an epoch-adaptive attack would silently run at its epoch-0 strength
	// (a default ramp emits nothing). Fail loudly instead.
	if sp.Attack != nil && sp.Attack.EpochAdaptive() {
		return nil, fmt.Errorf("bench: attack %q is epoch-adaptive and the spec sweep has no epochs; drive it with daploadgen -attack-epochs", sp.Attack.Name)
	}
	if sp.Task == core.TaskFrequency {
		return specSweepFreq(cfg, sp, est)
	}

	ds, err := loadDataset(cfg, "Beta(2,5)")
	if err != nil {
		return nil, err
	}
	values := ds.Values
	truth := ds.TrueMean()
	if sp.Task == core.TaskDistribution {
		values = make([]float64, len(ds.Values))
		for i, v := range ds.Values {
			values[i] = (v + 1) / 2
		}
		truth = (truth + 1) / 2
	}
	if sp.Task == core.TaskVariance {
		truth = stats.Variance(values)
	}
	collector, ok := est.(core.Collector)
	if !ok {
		return nil, fmt.Errorf("bench: task %q has no simulation entry point", sp.Task)
	}
	read := func(res *core.Result) float64 {
		if sp.Task == core.TaskVariance {
			return res.Variance
		}
		return res.Mean
	}

	gammas := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45}
	// The spec's attack section selects the swept adversary through the
	// registry; specs without one sweep the paper's standard BBA.
	adv, err := specAdversary(sp)
	if err != nil {
		return nil, err
	}
	// The Ostrich column estimates the mean on the PM collection, so it is
	// only comparable for mean-task specs; other tasks estimate a
	// different quantity (or domain) and get the spec column alone.
	withOstrich := sp.Task == core.TaskMean
	pn := panel{
		title: fmt.Sprintf("spec sweep: task=%s scheme=%s ε=%g attack=%s (MSE vs γ, %s)",
			sp.Task, sp.Scheme, sp.Eps, adv.Name(), ds.Name),
		header: []string{"gamma", "spec", "emf_iters", "converged"},
	}
	if withOstrich {
		pn.header = append(pn.header, "ostrich")
	}
	// Each trial of the spec column is one sequential sweep of the γ grid,
	// warm-starting every cell's solver from its grid neighbour's fits
	// (core.WithWarm): the collections differ only in the Byzantine mix,
	// so the previous cell's deconvolution is a near-converged seed. The
	// emf_iters and converged columns log the solver telemetry (mean
	// EM-map evaluations per estimate; fraction of trials whose fits all
	// met the Tol rule) so dapbench -csv records under-converged cells
	// instead of silently tabulating the MaxIter iterate. The trial
	// returns the squared errors, then the iterations, then the
	// convergence flags, one per γ.
	n := len(gammas)
	chain := cfg.mc(cfg.Seed+0x57EE9, func(r *rand.Rand) ([]float64, error) {
		out := make([]float64, 3*n)
		var warm *core.WarmState
		for i, gamma := range gammas {
			col, err := collector.Collect(r, values, adv, gamma)
			if err != nil {
				return nil, err
			}
			res, err := est.Estimate(core.WithWarm(context.Background(), warm), col)
			if err != nil {
				return nil, err
			}
			warm = res.Warm
			out[i] = sq(read(res), truth)
			out[n+i] = float64(res.EMFIters)
			if res.Converged {
				out[2*n+i] = 1
			}
		}
		return out, nil
	})
	for i, g := range gammas {
		rw := row{label: []string{fmt.Sprintf("%.2f", g)}, cells: []cell{
			{job: chain, i: i},
			{job: chain, i: n + i, f: func(v float64) string { return fmt.Sprintf("%.0f", v) }},
			{job: chain, i: 2*n + i, f: func(v float64) string { return fmt.Sprintf("%.2f", v) }},
		}}
		if withOstrich {
			rw.cells = append(rw.cells, cell{job: cfg.code(cfg.Seed+uint64(i)*1000+500, func(r *rand.Rand) (float64, error) {
				reports, err := core.CollectPM(r, values, sp.Eps, adv, g, sp.OPrime)
				return sq(stats.Mean(reports), truth), err
			})})
		}
		pn.rows = append(pn.rows, rw)
	}
	return run(cfg, pn)
}

// specAdversary resolves a spec's attack section through the registry,
// defaulting to the paper's standard BBA.
func specAdversary(sp core.Spec) (attack.Adversary, error) {
	adv, err := sp.Adversary()
	if err != nil {
		return nil, err
	}
	if adv == nil {
		adv = attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	}
	return adv, nil
}

// specSweepFreq sweeps a categorical attack for a frequency spec over a
// synthetic Zipf-ish categorical population: the spec's attack section
// when present, the historical top-category direct injection otherwise.
func specSweepFreq(cfg Config, sp core.Spec, est core.Estimator) ([]*Table, error) {
	// Deterministic skewed population over the spec's K categories (shared
	// with the red-team matrix).
	cats, truth := zipfCats(cfg.N, sp.K)
	adv, err := sp.Adversary()
	if err != nil {
		return nil, err
	}
	if adv == nil {
		adv = &attack.Targeted{Cats: []int{sp.K - 1}}
	}
	pn := panel{
		title: fmt.Sprintf("spec sweep: task=%s K=%d ε=%g attack=%s (frequency MSE vs γ)",
			sp.Task, sp.K, sp.Eps, adv.Name()),
		header: []string{"gamma", "spec"},
	}
	for i, gamma := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		j := cfg.specs(cfg.Seed+uint64(i)*1000, []core.Estimator{est}, load{cats: cats, adv: adv, gamma: gamma}, freqErr(truth))
		pn.rows = append(pn.rows, line([]string{fmt.Sprintf("%.2f", gamma)}, 0, j))
	}
	return run(cfg, pn)
}
