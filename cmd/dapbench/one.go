package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/rng"
	"repro/internal/stats"
)

// oneAdversary builds the round's adversary from the spec's attack
// section. A spec without one runs the paper's standard BBA ([C/2,C],
// uniform) or, for task frequency, a targeted injection into category 0.
func oneAdversary(w io.Writer, sp core.Spec) (attack.Adversary, error) {
	as := attack.Spec{Name: "bba"}
	if sp.Task == core.TaskFrequency {
		as = attack.Spec{Name: "targeted", Cats: []int{0}}
	}
	if sp.Attack != nil {
		as = *sp.Attack
	}
	if as.EpochAdaptive() {
		fmt.Fprintf(w, "dapbench: note: attack %q is epoch-adaptive; this one-shot round runs at epoch 0 (ramp frac0 / burst on-phase) — use daploadgen -attack-epochs for the full schedule\n", as.Name)
	}
	return attack.New(as)
}

// runOne runs a single protocol round of sp against its attack at gamma
// and prints the collector diagnostics: for a numeric task next to the
// Ostrich and Trimming comparators on a single-group collection at the
// same budget, for task frequency as the per-category MSE.
func runOne(w, stderr io.Writer, sp core.Spec, dsName string, n int, gamma float64, seed uint64) error {
	est, err := core.Build(sp)
	if err != nil {
		return err
	}
	adv, err := oneAdversary(stderr, sp)
	if err != nil {
		return err
	}
	r := rng.New(seed)
	if sp.Task == core.TaskFrequency {
		return runOneFrequency(w, est, sp, adv, dsName, n, gamma, r)
	}
	if dsName == "" {
		dsName = "Taxi"
	}
	ds, err := dataset.ByName(r, dsName, n)
	if err != nil {
		return err
	}
	values := ds.Values
	trueMean := ds.TrueMean()
	if sp.Task == core.TaskDistribution {
		// SW inputs live in [0,1]; map the dataset's [−1,1] values.
		values = make([]float64, len(ds.Values))
		for i, v := range ds.Values {
			values[i] = (v + 1) / 2
		}
		trueMean = (trueMean + 1) / 2
	}
	runner, ok := est.(core.Runner)
	if !ok {
		return fmt.Errorf("task %q has no simulation entry point", sp.Task)
	}
	res, err := runner.Run(r, values, adv, gamma)
	if err != nil {
		return err
	}

	reports, err := core.CollectPM(rng.New(seed+1), ds.Values, sp.Eps, adv, gamma, sp.OPrime)
	if err != nil {
		return err
	}
	comparators := map[string]float64{}
	for _, name := range []string{"ostrich", "trimming"} {
		d, err := defense.New(defense.Spec{Name: name})
		if err != nil {
			return err
		}
		if comparators[name], err = d.Estimate(rng.New(seed+2), reports, res.PoisonedRight); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "dataset        %s (N=%d)\n", ds.Name, ds.N())
	fmt.Fprintf(w, "attack         %s, γ=%g\n", adv.Name(), gamma)
	fmt.Fprintf(w, "task           %s over %s, scheme %s, ε=%g, ε0=%g, %d groups\n",
		sp.Task, sp.Mechanism, sp.Scheme, sp.Eps, sp.Eps0, len(est.Groups()))
	fmt.Fprintf(w, "true mean      %+.6f\n", trueMean)
	fmt.Fprintf(w, "estimate       %+.6f  (error %+.2e)\n", res.Mean, res.Mean-trueMean)
	if sp.Task == core.TaskVariance {
		trueVar := stats.Variance(values)
		fmt.Fprintf(w, "variance       %.6f  (true %.6f, error %+.2e)\n", res.Variance, trueVar, res.Variance-trueVar)
		fmt.Fprintf(w, "second moment  %.6f\n", res.SecondMoment)
	}
	if sp.Domain != nil {
		fmt.Fprintf(w, "in units       %+.6f  (domain [%g, %g])\n",
			sp.FromUnit(res.Mean), sp.Domain.Lo, sp.Domain.Hi)
	}
	fmt.Fprintf(w, "Ostrich        %+.6f  (error %+.2e)\n", comparators["ostrich"], comparators["ostrich"]-ds.TrueMean())
	fmt.Fprintf(w, "Trimming       %+.6f  (error %+.2e)\n", comparators["trimming"], comparators["trimming"]-ds.TrueMean())
	side := "left"
	if res.PoisonedRight {
		side = "right"
	}
	fmt.Fprintf(w, "probed side    %s\n", side)
	fmt.Fprintf(w, "probed γ̂       %.4f\n", res.Gamma)
	if res.VarMin > 0 {
		fmt.Fprintf(w, "min variance   %.3e\n", res.VarMin)
	}
	if len(res.GroupMeans) == len(est.Groups()) && len(res.Weights) == len(res.GroupMeans) {
		fmt.Fprintln(w, "group  ε_t      reports/user  M_t        w_t      n̂_t")
		for t, g := range est.Groups() {
			nhat := math.NaN()
			if t < len(res.NHat) {
				nhat = res.NHat[t]
			}
			fmt.Fprintf(w, "%5d  %-8.4g %-13d %+.5f  %.4f  %.0f\n",
				t, g.Eps, g.Reports, res.GroupMeans[t], res.Weights[t], nhat)
		}
	}
	return nil
}

// runOneFrequency runs a categorical round over the COVID-19 age-group
// population, the one categorical dataset.
func runOneFrequency(w io.Writer, est core.Estimator, sp core.Spec, adv attack.Adversary, dsName string, n int, gamma float64, r *rand.Rand) error {
	cov := dataset.COVID19()
	if dsName != "" && !strings.EqualFold(dsName, "COVID19") {
		return fmt.Errorf("task frequency needs a categorical dataset (use -dataset COVID19)")
	}
	if sp.K != cov.K() {
		return fmt.Errorf("spec has k=%d but %s has %d categories", sp.K, cov.Name, cov.K())
	}
	runner, ok := est.(core.CatAdvRunner)
	if !ok {
		return fmt.Errorf("task %q has no categorical adversary entry point", sp.Task)
	}
	res, err := runner.RunCatsAdv(r, cov.Sample(r, n), adv, gamma)
	if err != nil {
		return err
	}
	trueFreqs := cov.Freqs()
	fmt.Fprintf(w, "dataset        %s (N=%d, K=%d)\n", cov.Name, n, cov.K())
	fmt.Fprintf(w, "attack         %s, γ=%g\n", adv.Name(), gamma)
	fmt.Fprintf(w, "task           %s over %s, scheme %s, ε=%g, ε0=%g\n",
		sp.Task, sp.Mechanism, sp.Scheme, sp.Eps, sp.Eps0)
	fmt.Fprintf(w, "probed cats    %v\n", res.PoisonCats)
	fmt.Fprintf(w, "probed γ̂       %.4f\n", res.Gamma)
	var mse float64
	for j := range trueFreqs {
		d := res.Freqs[j] - trueFreqs[j]
		mse += d * d
	}
	fmt.Fprintf(w, "frequency MSE  %.3e\n", mse/float64(len(trueFreqs)))
	return nil
}
