package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/ldp"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Result is the unified collector output of every task kind. The fields a
// task does not produce stay at their zero value: mean/variance tasks fill
// Mean (and Variance/SecondMoment), distribution tasks add XHat, frequency
// tasks fill Freqs/PoisonCats/GroupFreqs instead of Mean/GroupMeans. The
// per-group diagnostics (GroupGammas, Weights, NHat, VarMin) and the probed
// Byzantine proportion Gamma are common to all protocol tasks.
type Result struct {
	// Task is the producing spec's task kind.
	Task TaskKind `json:"task"`
	// Mean is the aggregated mean estimate in the protocol's unit domain.
	Mean float64 `json:"mean"`
	// Variance and SecondMoment are filled by TaskVariance.
	Variance     float64 `json:"variance,omitempty"`
	SecondMoment float64 `json:"second_moment,omitempty"`
	// Freqs is the frequency estimate (TaskFrequency; sums to one).
	Freqs []float64 `json:"freqs,omitempty"`
	// XHat is the reconstructed input histogram (TaskDistribution;
	// normalized).
	XHat []float64 `json:"xhat,omitempty"`
	// Gamma is the probed Byzantine proportion γ̂.
	Gamma float64 `json:"gamma"`
	// PoisonedRight is the probed poisoned side (numeric tasks).
	PoisonedRight bool `json:"poisoned_right"`
	// PoisonCats is the probed poisoned category set (TaskFrequency).
	PoisonCats []int `json:"poison_cats,omitempty"`
	// OPrime is the pessimistic mean initialization that anchored the
	// poison sets.
	OPrime float64 `json:"oprime,omitempty"`
	// Per-group diagnostics.
	GroupMeans  []float64   `json:"group_means,omitempty"`
	GroupGammas []float64   `json:"group_gammas,omitempty"`
	GroupFreqs  [][]float64 `json:"group_freqs,omitempty"`
	Weights     []float64   `json:"weights,omitempty"`
	NHat        []float64   `json:"nhat,omitempty"`
	// VarMin is Theorem 6's minimal worst-case variance bound.
	VarMin float64 `json:"var_min,omitempty"`
	// Solver telemetry: EMFIters is the total EM-map evaluations across
	// every solver run of the estimate (probes included), EMFRestarts the
	// SQUAREM extrapolations rejected by the monotonicity safeguard, and
	// WarmHits the runs seeded from a previous fit.
	EMFIters    int `json:"emf_iters,omitempty"`
	EMFRestarts int `json:"emf_restarts,omitempty"`
	WarmHits    int `json:"warm_hits,omitempty"`
	// Converged reports whether every EM fit met its tolerance before
	// MaxIter; false means at least one group silently returned the
	// MaxIter iterate and the estimate may be under-converged.
	Converged bool `json:"converged"`
	// Warm carries the estimate's EM fits for seeding a subsequent
	// estimate over the same layout (attach it to the next call's context
	// with WithWarm). Never serialized.
	Warm *WarmState `json:"-"`
}

// Estimator is the single estimation surface every task kind implements:
// batch estimation over a raw Collection and histogram estimation over
// the streaming sufficient statistic. Build returns one for any valid
// Spec.
type Estimator interface {
	// Spec returns the normalized spec the estimator was built from.
	Spec() Spec
	// Groups returns the protocol group layout (one synthetic full-budget
	// group for defense comparators; 2h groups for variance — the mean
	// half followed by the moment half; alpha and beta for the baseline).
	Groups() []Group
	// Estimate runs the collector pipeline over raw per-group reports.
	Estimate(ctx context.Context, col *Collection) (*Result, error)
	// EstimateHist runs the collector pipeline over per-group output
	// histograms (HistCollection), the entry point of the streaming
	// engine. Estimators that need raw reports (defense comparators)
	// reject it with ErrBadSpec.
	EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error)
}

// Streamable marks estimators that can back a stream tenant: reports are
// ingestible into per-group output histograms over a known domain.
type Streamable interface {
	Estimator
	// OutputDomain returns group t's report domain (the perturbation
	// output interval, or [0,K) for categorical tasks).
	OutputDomain(t int) ldp.Domain
}

// Runner is the simulation entry point shared by the numeric task kinds:
// collect from values under an adversary, then estimate.
type Runner interface {
	Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error)
}

// CatRunner is the categorical simulation entry point.
type CatRunner interface {
	RunCats(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error)
}

// CatAdvRunner is the categorical simulation entry point under a
// registry-selected adversary (attack.New): Byzantine users inject the
// categories the adversary emits instead of a fixed uniform poison set.
type CatAdvRunner interface {
	RunCatsAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error)
}

// Collector is implemented by estimators whose user side can be simulated
// into a raw Collection (the input of Estimate).
type Collector interface {
	Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error)
}

// Build validates sp and returns its estimator. This is the single
// construction path behind batch estimation, stream tenants, the wire API
// and the CLIs; adding a mechanism or task kind plugs in here once and
// appears everywhere. Each task's protocol type is its own Estimator;
// the optional faces (Streamable, Collector, Runner, CatRunner,
// CatAdvRunner) are found by type assertion.
func Build(sp Spec) (Estimator, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sp = sp.Normalize()
	var est Estimator
	var err error
	switch {
	case sp.Defense != nil:
		est, err = newDefenseEstimator(sp)
	case sp.Task == TaskMean:
		est, err = newMeanDAP(sp)
	case sp.Task == TaskDistribution:
		est, err = newSWDAP(sp)
	case sp.Task == TaskFrequency:
		est, err = newFreqDAP(sp)
	case sp.Task == TaskVariance:
		est, err = newVarianceDAP(sp)
	case sp.Task == TaskBaseline:
		est, err = newBaseline(sp)
	default:
		err = badSpec("unknown task %q", sp.Task)
	}
	if err != nil {
		return nil, err
	}
	return est, nil
}

// ctxErr reports a done context. Estimators check it once at entry; the
// per-group EM fits below are too short-lived to interrupt mid-flight.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// run is Collect followed by a cold Estimate: the Runner face of every
// numeric estimator.
func run(e interface {
	Estimator
	Collector
}, r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := e.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return e.Estimate(context.Background(), col)
}

// --- comparator defenses ---

type defenseEstimator struct {
	sp    Spec
	def   defense.Defense
	right bool
}

func newDefenseEstimator(sp Spec) (*defenseEstimator, error) {
	def, err := defense.New(*sp.Defense)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return &defenseEstimator{
		sp:    sp,
		def:   def,
		right: sp.Defense.Side != "left",
	}, nil
}

// defenseSeed derives the rng seed for a randomized defense (kmeans,
// iforest) from the reports themselves: identical input gives identical
// output, independent of call order or concurrency, with no shared state.
func defenseSeed(reports []float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	h := uint64(offset)
	h = (h ^ uint64(len(reports))) * prime
	for _, v := range reports {
		b := math.Float64bits(v)
		h = (h ^ (b & 0xffffffff)) * prime
		h = (h ^ (b >> 32)) * prime
	}
	return h
}

func (e *defenseEstimator) Spec() Spec { return e.sp }

// Groups returns the single full-budget group the comparators operate on.
func (e *defenseEstimator) Groups() []Group {
	return []Group{{Index: 0, Eps: e.sp.Eps, Reports: 1}}
}

func (e *defenseEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != 1 || len(col.Groups[0]) == 0 {
		return nil, badCollection("defense comparators expect one non-empty group")
	}
	mean, err := e.def.Estimate(rng.New(defenseSeed(col.Groups[0])), col.Groups[0], e.right)
	if err != nil {
		return nil, err
	}
	mean = stats.Clamp(mean, -1, 1)
	return &Result{
		Task:          TaskMean,
		Mean:          mean,
		PoisonedRight: e.right,
		GroupMeans:    []float64{mean},
		Weights:       []float64{1},
		// No iterative solver ran (EMFKMeans runs its own internally and
		// reports through its return value), so nothing was left
		// under-converged.
		Converged: true,
	}, nil
}

// EstimateHist is rejected: the comparators are defined on raw reports
// (subset sampling, order statistics), which the histogram statistic
// cannot reproduce.
func (e *defenseEstimator) EstimateHist(context.Context, *HistCollection) (*Result, error) {
	return nil, fmt.Errorf("%w: defense %q needs raw reports and cannot estimate from histograms",
		ErrBadSpec, e.def.Name())
}

// Run is Collect followed by Estimate.
func (e *defenseEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return run(e, r, values, adv, gamma)
}

// Collect gathers one single-group PM collection at the full budget.
func (e *defenseEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	reports, err := CollectPM(r, values, e.sp.Eps, adv, gamma, e.sp.OPrime)
	if err != nil {
		return nil, err
	}
	return &Collection{Groups: [][]float64{reports}}, nil
}
