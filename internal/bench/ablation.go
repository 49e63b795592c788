package bench

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/rng"
)

// Ablation benchmarks the design choices DESIGN.md calls out, all on the
// Taxi workload (Poi[C/2,C], γ = 0.25, ε = 1):
//
//  1. minimum group budget ε₀ (which fixes the group count h);
//  2. CEMF*'s suppression threshold factor;
//  3. Algorithm 5's literal weights vs the general optimum;
//  4. the §IV baseline protocol against honest and probing-aware
//     (gamed) adversaries vs DAP — the motivation for the multi-group
//     design;
//  5. standalone outlier filters vs DAP;
//  6. accuracy vs population size N.
//
// Each table's rows are the ablated settings over one MSE column.
func Ablation(cfg Config) ([]*Table, error) {
	ds, err := loadDataset(cfg, "Taxi")
	if err != nil {
		return nil, err
	}
	truth := ds.TrueMean()
	w := load{values: ds.Values, adv: attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), gamma: 0.25}
	const eps = 1.0
	emfStar := cfg.spec(core.MeanTask(), eps, core.WithScheme(core.SchemeEMFStar))
	// specRow is the row of one spec on its own collections of w at seed
	// cfg.Seed+stream; the first build error is kept in err.
	specRow := func(label []string, sp core.Spec, stream uint64) row {
		ests, e := build(sp)
		if e != nil {
			err = e
			return row{label: label}
		}
		return line(label, 0, cfg.specs(cfg.Seed+stream, ests, w, meanErr(truth)))
	}

	// 1. ε₀ sweep.
	t1 := panel{
		title:  "Ablation 1: MSE vs ε₀ (group count) — DAP_EMF*, Taxi, Poi[C/2,C], ε=1",
		header: []string{"ε₀", "h", "MSE"},
	}
	for i, eps0 := range []float64{0.25, 1.0 / 16, 1.0 / 64} {
		sp := emfStar
		sp.Eps0 = eps0
		h := 0
		if ests, e := build(sp); e == nil {
			h = len(ests[0].Groups())
		}
		t1.rows = append(t1.rows, specRow([]string{fmt.Sprintf("%g", eps0), fmt.Sprintf("%d", h)}, sp, uint64(0xAB10+i)))
	}

	// 2. Suppression factor sweep.
	t2 := panel{
		title:  "Ablation 2: MSE vs CEMF* suppression factor — Taxi, Poi[C/2,C], ε=1",
		header: []string{"factor", "MSE"},
	}
	for i, factor := range []float64{0.25, 0.5, 1.0} {
		t2.rows = append(t2.rows, specRow([]string{fmt.Sprintf("%.2f", factor)},
			cfg.spec(core.MeanTask(), eps, core.WithScheme(core.SchemeCEMFStar), core.WithSuppressFactor(factor)), uint64(0xAB20+i)))
	}

	// 3. Weight mode.
	t3 := panel{
		title:  "Ablation 3: Algorithm 5 weights vs general optimum — DAP_EMF*, Taxi, ε=1",
		header: []string{"weights", "MSE"},
	}
	for i, label := range []string{"paper (Alg. 5)", "general n̂²/B"} {
		sp := emfStar
		sp.Weights = []core.WeightMode{core.WeightsPaper, core.WeightsGeneral}[i].String()
		t3.rows = append(t3.rows, specRow([]string{label}, sp, uint64(0xAB30+i)))
	}

	// 4. Baseline protocol vs DAP under probing-aware attackers. The gamed
	// threat (Byzantine users honest on ε_α, poisoning ε_β) is a
	// collection only the baseline offers, so its row is code.
	baseline := core.NewSpec(core.BaselineTask(1.0/8, 7.0/8),
		core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(cfg.EMFMaxIter))
	bl, e := core.Build(baseline)
	if e != nil {
		return nil, e
	}
	gamed, ok := bl.(interface {
		GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*core.Collection, error)
	})
	if !ok {
		return nil, fmt.Errorf("bench: the baseline estimator lacks GamedCollect")
	}
	t4 := panel{
		title:  "Ablation 4: baseline (§IV) vs DAP (§V) under honest and gamed attackers — Taxi, ε=1",
		header: []string{"protocol", "threat", "MSE"},
		rows: []row{
			specRow([]string{"baseline", "honest attack on both budgets"}, baseline, 0xAB40),
			line([]string{"baseline", "gamed (honest ε_α, poison ε_β)"}, 0,
				cfg.code(cfg.Seed+0xAB41, func(r *rand.Rand) (float64, error) {
					col, err := gamed.GamedCollect(r, w.values, w.adv, w.gamma)
					if err != nil {
						return 0, err
					}
					res, err := bl.Estimate(context.Background(), col)
					if err != nil {
						return 0, err
					}
					return sq(res.Mean, truth), nil
				})),
			specRow([]string{"DAP", "gamed strategy impossible (random ε)"}, emfStar, 0xAB42),
		},
	}

	// 5. Outlier-filter composability (§III-A): boxplot and isolation
	// forest as standalone defenses on the same workload.
	t5 := panel{
		title:  "Ablation 5: standalone outlier filters vs DAP — Taxi, Poi[C/2,C], ε=1, γ=0.25",
		header: []string{"defense", "MSE"},
		rows: []row{
			specRow([]string{"Boxplot(1.5·IQR)"},
				cfg.spec(core.MeanTask(), eps, core.WithDefense(defense.Spec{Name: "boxplot"})), 0xAB50),
			line([]string{"IForest(10%)"}, 0, cfg.defended(cfg.Seed+0xAB51, w, eps, truth,
				&defense.IForestDefense{Trees: 50, SampleSize: 256, Contamination: 0.1})),
			specRow([]string{"DAP_EMF*"}, emfStar, 0xAB52),
		},
	}

	// 6. Accuracy vs population size N: sampling noise scaling.
	t6 := panel{
		title:  "Ablation 6: MSE vs N — DAP_EMF*, Taxi, Poi[C/2,C], ε=1",
		header: []string{"N", "MSE"},
	}
	ests, e := build(emfStar)
	if e != nil {
		return nil, e
	}
	for i, n := range []int{cfg.N / 4, cfg.N / 2, cfg.N} {
		n = max(n, 100)
		sub, e := dataset.ByName(rng.Split(cfg.Seed, 0xAB60+uint64(i)), "Taxi", n)
		if e != nil {
			return nil, e
		}
		t6.rows = append(t6.rows, line([]string{fmt.Sprintf("%d", n)}, 0,
			cfg.specs(cfg.Seed+uint64(0xAB70+i), ests, load{values: sub.Values, adv: w.adv, gamma: w.gamma}, meanErr(sub.TrueMean()))))
	}
	if err != nil {
		return nil, err
	}
	return run(cfg, t1, t2, t3, t4, t5, t6)
}
