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
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// epsLabels formats a budget like the paper's axis ticks (1/4, 1/2, …).
func epsLabel(eps float64) string {
	switch eps {
	case 0.0625:
		return "1/16"
	case 0.125:
		return "1/8"
	case 0.25:
		return "1/4"
	case 0.5:
		return "1/2"
	case 1.5:
		return "3/2"
	}
	return fmt.Sprintf("%g", eps)
}

// rangeLabels lists the paper's poison ranges in Table I / Fig. 6 order.
var rangeLabels = []string{"[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]"}

func mustRange(label string) attack.Range {
	rg, ok := attack.RangeByName(label)
	if !ok {
		panic("bench: unknown range " + label)
	}
	return rg
}

// loadDataset builds a dataset deterministically from the config seed so
// every trial sees the same population.
func loadDataset(cfg Config, name string) (*dataset.Numeric, error) {
	return dataset.ByName(rng.Split(cfg.Seed, 0xDA7A), name, cfg.N)
}

// dapSpec is the paper's default mean-task cell: ε₀ = 1/16 at every ε.
func dapSpec(scheme core.Scheme, eps float64, maxIter int, opts ...core.Option) core.Spec {
	return core.NewSpec(core.MeanTask(), append([]core.Option{
		core.WithBudget(eps, 1.0/16), core.WithScheme(scheme), core.WithEMFMaxIter(maxIter),
	}, opts...)...)
}

// freqSpec is the k-RR frequency cell at ε₀ = 1/16.
func freqSpec(scheme core.Scheme, eps float64, k, maxIter int) core.Spec {
	return core.NewSpec(core.FrequencyTask(k), core.WithBudget(eps, 1.0/16),
		core.WithScheme(scheme), core.WithEMFMaxIter(maxIter))
}

// build constructs sp's estimator and asserts the face an experiment
// drives: a core face (core.Runner, …) or one of the bench-local hook
// interfaces below.
func build[T any](sp core.Spec) (T, error) {
	var face T
	est, err := core.Build(sp)
	if err != nil {
		return face, err
	}
	face, ok := est.(T)
	if !ok {
		return face, fmt.Errorf("bench: the %s estimator lacks %T", sp.Task, &face)
	}
	return face, nil
}

// collectEstimator is a numeric estimator whose user side the bench
// simulates once and estimates several times.
type collectEstimator interface {
	core.Estimator
	core.Collector
}

// gamedCollector is the baseline estimator's probing-aware collection
// (Byzantine users honest on ε_α, poisoning ε_β) — Ablation 4.
type gamedCollector interface {
	collectEstimator
	GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*core.Collection, error)
}

// catCollector is the frequency estimator's categorical collection, which
// the scheme rows of a cell share, and the Ostrich baseline over it
// (Fig. 9(c)(d), the red-team matrix).
type catCollector interface {
	core.Estimator
	CollectFreq(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*core.HistCollection, error)
	OstrichFreq(hc *core.HistCollection) ([]float64, error)
}

// dapTrial returns a sim.Trial running one full protocol round.
func dapTrial(d core.Runner, values []float64, adv attack.Adversary, gamma float64) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		est, err := d.Run(r, values, adv, gamma)
		if err != nil {
			return 0, err
		}
		return est.Mean, nil
	}
}

// ostrichTrial averages a plain single-group PM collection.
func ostrichTrial(values []float64, eps float64, adv attack.Adversary, gamma float64) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
		if err != nil {
			return 0, err
		}
		return stats.Clamp(defense.Ostrich(reports), -1, 1), nil
	}
}

// trimmingTrial trims 50% from the poisoned side of a single-group
// collection.
func trimmingTrial(values []float64, eps float64, adv attack.Adversary, gamma float64, poisonedRight bool) sim.Trial {
	return func(r *rand.Rand) (float64, error) {
		reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
		if err != nil {
			return 0, err
		}
		return stats.Clamp(defense.Trimming(reports, 0.5, poisonedRight), -1, 1), nil
	}
}

// probeGamma runs one single-group collection and returns the EMF γ̂
// estimate via side probing.
func probeGamma(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64, maxIter int) (float64, error) {
	reports, err := core.CollectPM(r, values, eps, adv, gamma, 0)
	if err != nil {
		return 0, err
	}
	mech := pm.MustNew(eps)
	d, dp := emf.BucketCounts(len(reports), mech.C())
	m, err := emf.BuildNumericCached(mech, d, dp)
	if err != nil {
		return 0, err
	}
	cfg := emf.Config{Tol: emf.PaperTol(eps), MaxIter: maxIter, Accelerate: true}
	probe, err := emf.ProbeSide(m, m.Counts(reports), 0, cfg)
	if err != nil {
		return 0, err
	}
	return probe.Chosen().Gamma(), nil
}

// splitFuture schedules one n-vector cell and fans it into n scalar
// futures, so rows that share underlying work (scheme rows estimating the
// same collections) still collect cell-by-cell in table order.
func splitFuture(p *pool, n int, fn func() ([]float64, error)) []*future[float64] {
	base := submit(p, fn)
	out := make([]*future[float64], n)
	for i := range out {
		f := &future[float64]{done: make(chan struct{})}
		out[i] = f
		go func(i int) {
			defer close(f.done)
			vals, err := base.get()
			if err != nil {
				f.err = err
				return
			}
			f.val = vals[i]
		}(i)
	}
	return out
}

// dapsForSchemes builds one mean estimator per estimation scheme at the
// same budget; their group layouts and mechanisms are identical, so one
// collection serves all of them.
func dapsForSchemes(eps float64, maxIter int) ([]collectEstimator, error) {
	schemes := core.Schemes()
	daps := make([]collectEstimator, len(schemes))
	for i, sc := range schemes {
		d, err := build[collectEstimator](dapSpec(sc, eps, maxIter))
		if err != nil {
			return nil, err
		}
		daps[i] = d
	}
	return daps, nil
}

// dapSchemesTrial returns a trial that collects ONE set of reports and
// estimates it with every scheme, chaining the warm state from the first
// estimate into the rest (the deconvolution is identical across schemes —
// only the post-processing differs — so the later estimates converge in a
// handful of EM steps). Sharing the collection both removes the dominant
// perturbation cost of per-scheme collections and turns the scheme rows
// into a paired comparison on identical data.
func dapSchemesTrial(daps []collectEstimator, values []float64, adv attack.Adversary, gamma float64) sim.VecTrial {
	return func(r *rand.Rand) ([]float64, error) {
		col, err := daps[0].Collect(r, values, adv, gamma)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(daps))
		var warm *core.WarmState
		for i, d := range daps {
			est, err := d.Estimate(core.WithWarm(context.Background(), warm), col)
			if err != nil {
				return nil, err
			}
			if warm == nil {
				warm = est.Warm
			}
			out[i] = est.Mean
		}
		return out, nil
	}
}

// mseSchemes schedules a shared-collection scheme cell: one future per
// scheme, all backed by one sim.MSEPer evaluation.
func (p *pool) mseSchemes(seed uint64, trials int, truth float64, fn sim.VecTrial, n int) []*future[float64] {
	return splitFuture(p, n, func() ([]float64, error) { return sim.MSEPer(seed, trials, truth, fn) })
}
