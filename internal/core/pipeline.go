package core

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/stats"
)

// solver owns what every instantiation of the protocol shares (§V, Fig. 3):
// the normalized spec it was built from, the group layout of §V-A, the
// estimation scheme, the per-group fit (Algorithms 2/4, Theorem 5) and the
// inter-group weights (Algorithm 5, Theorem 6). The PM, SW and k-RR
// protocols embed it and supply only what the paper says differs: how the
// threat features are probed (a poison-set function, γ̂ and a seed fit)
// and how a group's fit is read out. The baseline embeds it for the fit.
type solver struct {
	// sp is the normalized spec; its Eps, SuppressFactor (CEMF*'s
	// threshold factor, 0 selects 0.5) and EMFMaxIter (0 selects the emf
	// default) are read where they are used.
	sp     Spec
	groups []Group
	// worstVar[t] is Var_worst(ε_t) of group t's mechanism (Theorem 6).
	worstVar []float64
	// matrix returns group t's transform matrix at output resolution dprime.
	matrix func(t, dprime int) (*emf.Matrix, error)

	scheme Scheme
	// smooth runs every fit EMS-style (the Square Wave instantiation).
	smooth  bool
	weights WeightMode
}

// specSolver reads the scheme and weight controls of a normalized (hence
// valid) spec.
func specSolver(sp Spec, smooth bool) solver {
	s := solver{sp: sp, smooth: smooth}
	s.scheme, _ = ParseScheme(sp.Scheme)
	s.weights, _ = ParseWeightMode(sp.Weights)
	return s
}

// newSolver lays out the §V-A groups of a built spec: h =
// ⌈log₂(ε/ε₀)⌉+1 groups, group t holding budget ε_t = ε/2^t, reporting 2^t
// times and perturbing with newMech(ε_t).
func newSolver[M interface{ WorstCaseVar() float64 }](sp Spec, smooth bool, newMech func(eps float64) (M, error)) (solver, []M, error) {
	s := specSolver(sp, smooth)
	h := groupCount(sp.Eps, sp.Eps0)
	s.groups, s.worstVar = make([]Group, h), make([]float64, h)
	mechs := make([]M, h)
	for t := range mechs {
		eps := sp.Eps / math.Pow(2, float64(t))
		mech, err := newMech(eps)
		if err != nil {
			return s, nil, fmt.Errorf("core: group %d: %w", t, err)
		}
		s.groups[t] = Group{Index: t, Eps: eps, Reports: 1 << t}
		s.worstVar[t] = mech.WorstCaseVar()
		mechs[t] = mech
	}
	return s, mechs, nil
}

// Spec returns the normalized spec the protocol was built from.
func (s *solver) Spec() Spec { return s.sp }

// H returns the number of groups h = ⌈log₂(ε/ε₀)⌉+1.
func (s *solver) H() int { return len(s.groups) }

// Groups returns the group layout.
func (s *solver) Groups() []Group { return append([]Group(nil), s.groups...) }

// numericMatrix is the transform matrix of a numeric mechanism at output
// resolution dprime; the input resolution follows from the mechanism's
// output/input width ratio (PM's C) via emf.InputBuckets.
func numericMatrix(mech ldp.IntervalProber, dprime int) (*emf.Matrix, error) {
	c := mech.OutputDomain().Width() / mech.InputDomain().Width()
	return emf.BuildNumericCached(mech, emf.InputBuckets(dprime, c), dprime)
}

// reduce histograms a raw collection into the estimator's sufficient
// statistic at the paper's resolution d′ = ⌊√N_t⌋, one goroutine per group.
func (s *solver) reduce(col *Collection) (*HistCollection, []*emf.Matrix, error) {
	h := s.H()
	if col == nil || len(col.Groups) != h {
		return nil, nil, badCollection("collection does not match group layout")
	}
	for t, reports := range col.Groups {
		if len(reports) == 0 {
			return nil, nil, badCollection("group %d holds no reports", t)
		}
	}
	hc := &HistCollection{Counts: make([][]float64, h), Sums: make([]float64, h)}
	matrices := make([]*emf.Matrix, h)
	err := forEachGroup(h, func(t int) error {
		m, err := s.matrix(t, emf.OutputBuckets(len(col.Groups[t])))
		if err != nil {
			return err
		}
		matrices[t] = m
		hc.Counts[t] = m.Counts(col.Groups[t])
		hc.Sums[t] = stats.Sum(col.Groups[t])
		return nil
	})
	return hc, matrices, err
}

// matrices checks a histogram collection against the layout and builds
// each group's transform matrix at the histogram's own resolution.
func (s *solver) matrices(hc *HistCollection) ([]*emf.Matrix, error) {
	h := s.H()
	if hc == nil || len(hc.Counts) != h {
		return nil, badCollection("histogram collection does not match group layout")
	}
	if hc.Sums != nil && len(hc.Sums) != h {
		return nil, badCollection("histogram sums do not match group layout")
	}
	matrices := make([]*emf.Matrix, h)
	for t, counts := range hc.Counts {
		if len(counts) < 1 {
			return nil, badCollection("group %d histogram is empty", t)
		}
		m, err := s.matrix(t, len(counts))
		if err != nil {
			return nil, err
		}
		matrices[t] = m
		if stats.Sum(counts) <= 0 {
			return nil, badCollection("group %d holds no reports", t)
		}
	}
	return matrices, nil
}

// cfg builds the EM iteration controls at budget eps, using the paper's
// termination threshold τ = 0.01·e^{ε_t} and the SQUAREM-accelerated
// solver (tolerance-equivalent to the plain loop, ~2–5× fewer E-steps).
func (s *solver) cfg(eps float64) emf.Config {
	return emf.Config{Tol: emf.PaperTol(eps), MaxIter: s.sp.EMFMaxIter, Smooth: s.smooth, Accelerate: true}
}

// sidePoison returns the poison-set function of a probed side: the output
// buckets beyond oPrime on that side, at whatever resolution a group has.
func sidePoison(side emf.Side, oPrime float64) func(*emf.Matrix) []int {
	return func(m *emf.Matrix) []int {
		if side == emf.Right {
			return m.PoisonRight(oPrime)
		}
		return m.PoisonLeft(oPrime)
	}
}

// fit applies the configured scheme to one histogram at budget eps, seeding
// the solver from warmBase (the plain-EMF base fit) and warmFinal (the
// scheme's final fit) when available. A non-nil base is an already-solved
// plain fit on the same counts and poison set — how Baseline and SWSingle
// reuse their probe. It returns the final fit, the base fit it derives from
// (nil under EMF*, which needs none: its γ is the probed one, so an
// unconstrained base run would be pure waste) and the group's γ̂.
func (s *solver) fit(m *emf.Matrix, counts []float64, poison []int, gamma, eps float64, base, warmBase, warmFinal *emf.Result) (res, baseFit *emf.Result, gammaT float64, err error) {
	cfg := s.cfg(eps)
	if s.scheme == SchemeEMFStar {
		cfg.Init = warmFinal
		res, err = emf.RunConstrained(m, counts, poison, gamma, cfg)
		return res, nil, gamma, err
	}
	if base == nil {
		cfg.Init = warmBase
		if base, err = emf.Run(m, counts, poison, cfg); err != nil {
			return nil, nil, 0, err
		}
	}
	if s.scheme != SchemeCEMFStar {
		return base, base, base.Gamma(), nil
	}
	factor := s.sp.SuppressFactor
	if factor <= 0 {
		factor = 0.5
	}
	// RunConcentrated seeds its constrained re-run from base (the fit on
	// the current counts beats any previous estimate's).
	if res, err = emf.RunConcentrated(m, counts, base, gamma, factor, s.cfg(eps)); err != nil {
		return nil, nil, 0, err
	}
	return res, base, res.Gamma(), nil
}

// groupFits is stages 4–5 as handed to an instantiation's read-out.
type groupFits struct {
	// finals and bases are the per-group scheme fits and the plain fits
	// they derive from (see fit) — the next estimate's warm seeds.
	finals, bases []*emf.Result
	// n and mHat are the per-group report count N_t and removed poison
	// mass m̂_t = min(γ̂_t·N_t, 0.95·N_t).
	n, mHat []float64
	gammas  []float64
	// nHat, weights and varMin are Algorithm 5's outputs (see weigh).
	nHat, weights []float64
	varMin        float64
	// diag is the solver telemetry of the probe and the group fits.
	diag emfDiag
}

// fitGroups runs stage 4 (one fit per group, concurrently) and stage 5
// over the per-group histograms, given the probed threat features: poison
// maps a group's matrix to its poison buckets, gamma is the γ̂ probed at
// the smallest budget and seed the probe's fit of group h−1. diag carries
// the probe's solver telemetry; the group fits' is folded into it.
func (s *solver) fitGroups(matrices []*emf.Matrix, counts [][]float64, poison func(*emf.Matrix) []int, gamma float64, seed *emf.Result, warm *WarmState, diag emfDiag) (*groupFits, error) {
	h := s.H()
	f := &groupFits{
		finals: make([]*emf.Result, h), bases: make([]*emf.Result, h),
		n: make([]float64, h), mHat: make([]float64, h), gammas: make([]float64, h),
		diag: diag,
	}
	diags := make([]emfDiag, h)
	// The h EM fits are independent (each reads shared immutable inputs and
	// writes only its own index), so they run concurrently; the estimate is
	// bit-identical to the sequential one.
	err := forEachGroup(h, func(t int) error {
		wBase, wFinal := warm.base(t), warm.final(t)
		if t == h-1 {
			// The probe just solved group h−1's deconvolution with the chosen
			// poison set; its fit is a near-converged seed, fresher than any
			// previous estimate's.
			wBase = seed
			if wFinal == nil {
				wFinal = seed
			}
		}
		res, base, gammaT, err := s.fit(matrices[t], counts[t], poison(matrices[t]), gamma, s.groups[t].Eps, nil, wBase, wFinal)
		if err != nil {
			return err
		}
		f.finals[t], f.bases[t] = res, base
		diags[t].observe(res)
		if base != res {
			diags[t].observe(base)
		}
		nt := stats.Sum(counts[t])
		mHat := gammaT * nt
		if mHat > 0.95*nt {
			mHat = 0.95 * nt
		}
		f.n[t], f.mHat[t], f.gammas[t] = nt, mHat, gammaT
		return nil
	})
	if err != nil {
		return nil, err
	}
	for t := range diags {
		f.diag.merge(diags[t])
	}
	f.nHat, f.weights, f.varMin, err = s.weigh(f.n, f.mHat)
	return f, err
}

// weigh is Algorithm 5: n̂_t = (N_t − m̂_t)·ε_t/ε converts report counts to
// normal-user counts, B_t = n̂_t·Var_worst(ε_t) is the group's variance
// proxy, and the weights minimize the aggregate's worst-case variance,
// whose minimum varMin is Theorem 6's.
func (s *solver) weigh(n, mHat []float64) (nHat, w []float64, varMin float64, err error) {
	nHat = make([]float64, len(n))
	b := make([]float64, len(n))
	for t := range n {
		nHat[t] = (n[t] - mHat[t]) * s.groups[t].Eps / s.sp.Eps
		b[t] = nHat[t] * s.worstVar[t]
	}
	if w, err = OptimalWeights(b, nHat, s.weights); err != nil {
		return nil, nil, 0, err
	}
	return nHat, w, MinVariance(b, nHat), nil
}

// result starts an instantiation's Result from the shared stages: the
// probed γ̂, the per-group diagnostics, the solver telemetry and a warm
// state holding the group fits.
func (f *groupFits) result(task TaskKind, gamma float64) *Result {
	res := &Result{
		Task: task, Gamma: gamma, GroupGammas: f.gammas,
		Weights: f.weights, NHat: f.nHat, VarMin: f.varMin,
		Warm: &WarmState{bases: f.bases, finals: f.finals},
	}
	f.diag.apply(res)
	return res
}

// simulated checks the arguments every user-side simulation shares — n
// users filling h groups, a Byzantine proportion γ ∈ [0,1) — and returns
// the adversary (attack.None for nil) and the Byzantine head count ⌊γN⌉.
func simulated(n, h int, adv attack.Adversary, gamma float64) (attack.Adversary, int, error) {
	if n < h {
		return nil, 0, badCollection("fewer users than groups")
	}
	if gamma < 0 || gamma >= 1 {
		return nil, 0, fmt.Errorf("%w: gamma must lie in [0,1)", ErrDomain)
	}
	if adv == nil {
		adv = attack.None{}
	}
	return adv, int(math.Round(gamma * float64(n))), nil
}
