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
// appears everywhere.
func Build(sp Spec) (Estimator, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sp = sp.Normalize()
	scheme, _ := ParseScheme(sp.Scheme)
	weights, _ := ParseWeightMode(sp.Weights)
	switch {
	case sp.Defense != nil:
		return newDefenseEstimator(sp)
	case sp.Task == TaskMean:
		d, err := NewDAP(Params{
			Eps: sp.Eps, Eps0: sp.Eps0, Scheme: scheme,
			OPrime: sp.OPrime, AutoOPrime: sp.AutoOPrime, GammaSup: sp.GammaSup,
			SuppressFactor: sp.SuppressFactor, EMFMaxIter: sp.EMFMaxIter,
			WeightMode: weights,
		})
		if err != nil {
			return nil, err
		}
		return &numericEstimator{sp: sp, d: d,
			domain: func(t int) ldp.Domain { return d.Mechanism(t).OutputDomain() }}, nil
	case sp.Task == TaskDistribution:
		d, err := NewSWDAP(SWParams{
			Eps: sp.Eps, Eps0: sp.Eps0, Scheme: scheme, TrimFrac: sp.TrimFrac,
			SuppressFactor: sp.SuppressFactor, EMFMaxIter: sp.EMFMaxIter,
			WeightMode: weights,
		})
		if err != nil {
			return nil, err
		}
		return &numericEstimator{sp: sp, d: d,
			domain: func(t int) ldp.Domain { return d.Mechanism(t).OutputDomain() }}, nil
	case sp.Task == TaskFrequency:
		d, err := NewFreqDAP(FreqParams{
			Eps: sp.Eps, Eps0: sp.Eps0, K: sp.K, Scheme: scheme,
			SuppressFactor: sp.SuppressFactor, EMFMaxIter: sp.EMFMaxIter,
			WeightMode: weights,
		})
		if err != nil {
			return nil, err
		}
		return &freqEstimator{sp: sp, d: d}, nil
	case sp.Task == TaskVariance:
		p := Params{
			Eps: sp.Eps, Eps0: sp.Eps0, Scheme: scheme,
			OPrime: sp.OPrime, AutoOPrime: sp.AutoOPrime, GammaSup: sp.GammaSup,
			SuppressFactor: sp.SuppressFactor, EMFMaxIter: sp.EMFMaxIter,
			WeightMode: weights,
		}
		d1, err := NewDAP(p)
		if err != nil {
			return nil, err
		}
		d2, err := NewDAP(p)
		if err != nil {
			return nil, err
		}
		return &varianceEstimator{sp: sp, mean: d1, moment: d2}, nil
	case sp.Task == TaskBaseline:
		b, err := NewBaseline(sp.EpsAlpha, sp.EpsBeta, scheme)
		if err != nil {
			return nil, err
		}
		b.OPrime = sp.OPrime
		b.SuppressFactor = sp.SuppressFactor
		b.EMFMaxIter = sp.EMFMaxIter
		return &baselineEstimator{sp: sp, b: b}, nil
	}
	return nil, badSpec("unknown task %q", sp.Task)
}

// ctxErr reports a done context. Adapters check it once at entry; the
// per-group EM fits below are too short-lived to interrupt mid-flight.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// --- mean over PM, distribution over SW ---

// numericProtocol is what the PM and SW instantiations share.
type numericProtocol interface {
	Groups() []Group
	Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error)
	EstimateWarm(col *Collection, warm *WarmState) (*Result, error)
	EstimateHistWarm(hc *HistCollection, warm *WarmState) (*Result, error)
}

type numericEstimator struct {
	sp     Spec
	d      numericProtocol
	domain func(t int) ldp.Domain
}

func (e *numericEstimator) Spec() Spec                    { return e.sp }
func (e *numericEstimator) Groups() []Group               { return e.d.Groups() }
func (e *numericEstimator) OutputDomain(t int) ldp.Domain { return e.domain(t) }

func (e *numericEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return e.d.EstimateWarm(col, WarmFromContext(ctx))
}

func (e *numericEstimator) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return e.d.EstimateHistWarm(hc, WarmFromContext(ctx))
}

func (e *numericEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	return e.d.Collect(r, values, adv, gamma)
}

func (e *numericEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := e.d.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return e.d.EstimateWarm(col, nil)
}

// --- frequency over k-RR ---

type freqEstimator struct {
	sp Spec
	d  *FreqDAP
}

func (e *freqEstimator) Spec() Spec      { return e.sp }
func (e *freqEstimator) Groups() []Group { return e.d.Groups() }
func (e *freqEstimator) OutputDomain(int) ldp.Domain {
	return ldp.Domain{Lo: 0, Hi: float64(e.sp.K)}
}

// Estimate accepts raw per-group category reports encoded as float64
// (the Collection currency shared with the numeric tasks); non-integral
// or out-of-range values are rejected with ErrDomain.
func (e *freqEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != e.d.H() {
		return nil, badCollection("collection does not match group layout")
	}
	counts := make([][]float64, len(col.Groups))
	for t, reports := range col.Groups {
		counts[t] = make([]float64, e.sp.K)
		for _, v := range reports {
			c := int(v)
			if v != float64(c) || c < 0 || c >= e.sp.K {
				return nil, fmt.Errorf("%w: %g is not a category in [0,%d)", ErrDomain, v, e.sp.K)
			}
			counts[t][c]++
		}
	}
	return e.d.EstimateFreqWarm(&FreqCollection{Counts: counts, ByzCount: col.ByzCount}, WarmFromContext(ctx))
}

func (e *freqEstimator) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if hc == nil {
		return nil, badCollection("histogram collection does not match group layout")
	}
	return e.d.EstimateFreqWarm(&FreqCollection{Counts: hc.Counts}, WarmFromContext(ctx))
}

func (e *freqEstimator) RunCats(r *rand.Rand, cats []int, poisonCats []int, gamma float64) (*Result, error) {
	return e.d.Run(r, cats, poisonCats, gamma)
}

func (e *freqEstimator) RunCatsAdv(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*Result, error) {
	return e.d.RunAdv(r, cats, adv, gamma)
}

// --- variance via split populations ---

type varianceEstimator struct {
	sp     Spec
	mean   *DAP // first h groups: E[v]
	moment *DAP // last h groups: E[2v²−1]
}

func (e *varianceEstimator) Spec() Spec { return e.sp }

// Groups returns the 2h-group layout: the mean half followed by the
// moment half.
func (e *varianceEstimator) Groups() []Group {
	return append(e.mean.Groups(), e.moment.Groups()...)
}

// Collect splits the users into random disjoint halves (each contributes
// one statistic and spends exactly ε), collects the mean half on v and
// the moment half on 2v²−1, and concatenates the group reports.
func (e *varianceEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	meanVals, momentVals, err := splitMoments(r, values)
	if err != nil {
		return nil, err
	}
	c1, err := e.mean.Collect(r, meanVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	c2, err := e.moment.Collect(r, momentVals, adv, gamma)
	if err != nil {
		return nil, err
	}
	return &Collection{
		Groups:   append(c1.Groups, c2.Groups...),
		ByzCount: c1.ByzCount + c2.ByzCount,
	}, nil
}

func (e *varianceEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.mean.H()
	if col == nil || len(col.Groups) != 2*h {
		return nil, badCollection("variance estimation expects %d groups (mean half then moment half)", 2*h)
	}
	warm := WarmFromContext(ctx)
	m1, err := e.mean.EstimateWarm(&Collection{Groups: col.Groups[:h]}, warm.subState(0))
	if err != nil {
		return nil, err
	}
	m2, err := e.moment.EstimateWarm(&Collection{Groups: col.Groups[h:]}, warm.subState(1))
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

func (e *varianceEstimator) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	h := e.mean.H()
	if hc == nil || len(hc.Counts) != 2*h || hc.Sums == nil || len(hc.Sums) != 2*h {
		return nil, badCollection("variance estimation expects %d group histograms with sums", 2*h)
	}
	warm := WarmFromContext(ctx)
	m1, err := e.mean.EstimateHistWarm(&HistCollection{Counts: hc.Counts[:h], Sums: hc.Sums[:h]}, warm.subState(0))
	if err != nil {
		return nil, err
	}
	m2, err := e.moment.EstimateHistWarm(&HistCollection{Counts: hc.Counts[h:], Sums: hc.Sums[h:]}, warm.subState(1))
	if err != nil {
		return nil, err
	}
	return varianceResult(m1, m2), nil
}

func (e *varianceEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	col, err := e.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return e.Estimate(context.Background(), col)
}

// varianceResult combines the two half estimates: Var = E[v²] − E[v]²
// with E[v²] = (E[2v²−1]+1)/2. Mean, the probed threat features and VarMin
// are the mean half's; group diagnostics concatenate the halves, solver
// telemetry sums and the warm states compose.
func varianceResult(m1, m2 *Result) *Result {
	res := *m1
	res.Task = TaskVariance
	res.SecondMoment = stats.Clamp((m2.Mean+1)/2, 0, 1)
	res.Variance = math.Max(0, res.SecondMoment-m1.Mean*m1.Mean)
	res.GroupMeans = append(append([]float64(nil), m1.GroupMeans...), m2.GroupMeans...)
	res.GroupGammas = append(append([]float64(nil), m1.GroupGammas...), m2.GroupGammas...)
	res.Weights = append(append([]float64(nil), m1.Weights...), m2.Weights...)
	res.NHat = append(append([]float64(nil), m1.NHat...), m2.NHat...)
	res.EMFIters += m2.EMFIters
	res.EMFRestarts += m2.EMFRestarts
	res.WarmHits += m2.WarmHits
	res.Converged = m1.Converged && m2.Converged
	res.Warm = &WarmState{sub: []*WarmState{m1.Warm, m2.Warm}}
	return &res
}

// --- the §IV two-budget baseline ---

type baselineEstimator struct {
	sp Spec
	b  *Baseline
}

func (e *baselineEstimator) Spec() Spec { return e.sp }

// Groups returns the two-budget layout: the probing budget ε_α and the
// estimation budget ε_β, one report each.
func (e *baselineEstimator) Groups() []Group {
	return []Group{
		{Index: 0, Eps: e.b.EpsAlpha, Reports: 1},
		{Index: 1, Eps: e.b.EpsBeta, Reports: 1},
	}
}

func (e *baselineEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	col, err := e.b.Collect(r, values, adv, gamma)
	if err != nil {
		return nil, err
	}
	return &Collection{Groups: [][]float64{col.Alpha, col.Beta}}, nil
}

func (e *baselineEstimator) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if col == nil || len(col.Groups) != 2 {
		return nil, badCollection("baseline estimation expects two groups (alpha, beta)")
	}
	return e.b.Estimate(&BaselineCollection{Alpha: col.Groups[0], Beta: col.Groups[1]})
}

func (e *baselineEstimator) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return e.b.EstimateHist(hc)
}

func (e *baselineEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return e.b.Run(r, values, adv, gamma)
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

func (e *defenseEstimator) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	reports, err := CollectPM(r, values, e.sp.Eps, adv, gamma, e.sp.OPrime)
	if err != nil {
		return nil, err
	}
	return e.Estimate(context.Background(), &Collection{Groups: [][]float64{reports}})
}

func (e *defenseEstimator) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	reports, err := CollectPM(r, values, e.sp.Eps, adv, gamma, e.sp.OPrime)
	if err != nil {
		return nil, err
	}
	return &Collection{Groups: [][]float64{reports}}, nil
}
