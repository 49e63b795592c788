package bench

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
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

func mapStrings(eps []float64, f func(float64) string) []string {
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = f(e)
	}
	return out
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

// spec is the paper's default cell of a task: budget ε at ε₀ = 1/16 under
// the run's EM iteration cap.
func (cfg Config) spec(task core.Option, eps float64, opts ...core.Option) core.Spec {
	return core.NewSpec(task, append([]core.Option{
		core.WithBudget(eps, 1.0/16), core.WithEMFMaxIter(cfg.EMFMaxIter),
	}, opts...)...)
}

// build constructs one estimator per spec.
func build(sps ...core.Spec) ([]core.Estimator, error) {
	ests := make([]core.Estimator, len(sps))
	for i, sp := range sps {
		est, err := core.Build(sp)
		if err != nil {
			return nil, err
		}
		ests[i] = est
	}
	return ests, nil
}

// perScheme builds sp once per estimation scheme. The estimators share one
// group layout, so one collection serves them all (load.shared).
func perScheme(sp core.Spec) ([]core.Estimator, error) {
	var sps []core.Spec
	for _, sc := range core.Schemes() {
		sp.Scheme = sc.String()
		sps = append(sps, sp)
	}
	return build(sps...)
}

// catCollector is the frequency estimator's categorical collection, which
// the scheme rows of a cell share, and the Ostrich baseline over it
// (Fig. 9(c)(d)).
type catCollector interface {
	CollectFreq(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*core.HistCollection, error)
	OstrichFreq(hc *core.HistCollection) ([]float64, error)
}

// sq is the squared error of v against truth.
func sq(v, truth float64) float64 {
	d := v - truth
	return d * d
}

// meanErr scores a result by the squared error of its mean.
func meanErr(truth float64) func(*core.Result) float64 {
	return func(res *core.Result) float64 { return sq(res.Mean, truth) }
}

// freqErr scores a result by the component MSE of its frequencies.
func freqErr(truth []float64) func(*core.Result) float64 {
	return func(res *core.Result) float64 { return stats.MSEVec(res.Freqs, truth) }
}

// gammaErr scores a result by |γ̂−γ|.
func gammaErr(gamma float64) func(*core.Result) float64 {
	return func(res *core.Result) float64 { return math.Abs(res.Gamma - gamma) }
}

// pm collects one plain single-group PM collection of w at budget eps —
// the input of the side probe and of the code comparators.
func (w load) pm(r *rand.Rand, eps float64) ([]float64, error) {
	return core.CollectPM(r, w.values, eps, w.adv, w.gamma, 0)
}

// sw gathers one single-group SW collection of w at budget eps.
func (w load) sw(r *rand.Rand, eps float64) ([]float64, error) {
	mech, err := sw.New(eps)
	if err != nil {
		return nil, err
	}
	n := len(w.values)
	nByz := int(math.Round(w.gamma * float64(n)))
	env := attack.EnvFor(mech, 0.5)
	reports := make([]float64, 0, n)
	reports = append(reports, w.adv.Poison(r, env, nByz)...)
	// As in core.CollectPM: report order is irrelevant downstream, so a
	// sampled Byzantine bitset replaces the full O(N) permutation.
	byz := core.SampleSubset(r, n, nByz)
	for u, v := range w.values {
		if byz == nil || byz[u>>6]&(1<<(uint(u)&63)) == 0 {
			reports = append(reports, mech.Perturb(r, v))
		}
	}
	return reports, nil
}

// probe runs Algorithm 3's side probe on one single-group collection
// perturbed by mech, with the poison components placed around O′ = oPrime.
func probe(mech ldp.IntervalProber, reports []float64, oPrime float64, cfg emf.Config) (*emf.SideProbe, error) {
	d, dp := emf.BucketCounts(len(reports), mech.OutputDomain().Width()/mech.InputDomain().Width())
	m, err := emf.BuildNumericCached(mech, d, dp)
	if err != nil {
		return nil, err
	}
	return emf.ProbeSide(m, m.Counts(reports), oPrime, cfg)
}
