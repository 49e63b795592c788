package core

import (
	"context"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/pm"
	"repro/internal/stats"
)

// Group describes one DAP group (§V-A).
type Group struct {
	// Index is the group position t−1 (0-based); budgets halve as it grows.
	Index int
	// Eps is the group budget ε_t = ε/2^Index.
	Eps float64
	// Reports is how many times each member perturbs and reports,
	// ε/ε_t = 2^Index, so every user spends exactly ε in total.
	Reports int
}

// meanDAP is the Differential Aggregation Protocol for mean estimation
// over the Piecewise Mechanism (§V): TaskMean's estimator.
type meanDAP struct {
	solver
	mechs []*pm.Mechanism
}

func newMeanDAP(sp Spec) (*meanDAP, error) {
	s, mechs, err := newSolver(sp, false, pm.New)
	if err != nil {
		return nil, err
	}
	s.matrix = func(t, dprime int) (*emf.Matrix, error) { return numericMatrix(mechs[t], dprime) }
	return &meanDAP{solver: s, mechs: mechs}, nil
}

// OutputDomain returns group t's PM output interval.
func (d *meanDAP) OutputDomain(t int) ldp.Domain { return d.mechs[t].OutputDomain() }

// Collection holds the per-group reports received by the collector.
type Collection struct {
	// Groups contains the perturbed (or poison) reports of each group.
	Groups [][]float64
	// ByzCount is the number of Byzantine users (simulation ground truth,
	// not visible to the estimator).
	ByzCount int
}

// Collect simulates the user side of the protocol (§V-A stages 1–2): it
// shuffles users into h equal-sized groups, lets normal users perturb
// their value once per report slot with the group's budget, and lets the
// γ·N colluding Byzantine users send poison values from adv for every
// report slot. Byzantine users know each group's mechanism and output
// domain (the protocol is public) but not other users' data.
func (d *meanDAP) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	n, h := len(values), d.H()
	adv, nByz, err := simulated(n, h, adv, gamma)
	if err != nil {
		return nil, err
	}
	// A single shuffle provides both the Byzantine subset and the group
	// assignment: group t holds users perm[t·n/h : (t+1)·n/h], and the
	// Byzantine users are the fixed ids {0..nByz−1}, met wherever the
	// shuffle scattered them. Byzantine users never report their own
	// values (Poison ignores them), so fixing their ids costs nothing,
	// while each group's Byzantine count stays multivariate hypergeometric
	// exactly as with the second O(N) permutation the seed version drew.
	perm := r.Perm(n)
	col := &Collection{Groups: make([][]float64, h), ByzCount: nByz}
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.EnvFor(mech, d.sp.OPrime)
		env.Group = t
		reports := make([]float64, 0, (hi-lo)*g.Reports)
		for _, u := range perm[lo:hi] {
			if u < nByz {
				reports = append(reports, adv.Poison(r, env, g.Reports)...)
			} else {
				v := values[u]
				for k := 0; k < g.Reports; k++ {
					reports = append(reports, mech.Perturb(r, v))
				}
			}
		}
		col.Groups[t] = reports
	}
	return col, nil
}

// Estimate is the collector side of the protocol (§V stages 3–5): per
// group EMF probing, intra-group mean estimation with the configured
// scheme (Eq. 13), and variance-optimal inter-group aggregation
// (Algorithm 5). The poisoned side and γ̂ fed to EMF*/CEMF* come from the
// group with the smallest budget, where Theorem 3 makes EMF sharpest. A
// warm state attached to ctx seeds the solver runs (tolerance-equivalent
// to the cold run; see WarmState).
func (d *meanDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	hc, matrices, err := d.reduce(col)
	if err != nil {
		return nil, err
	}
	return d.estimate(matrices, hc, col.Groups[d.H()-1], WarmFromContext(ctx))
}

// EstimateHist runs the collector pipeline (stages 3–5) directly from
// per-group histograms — the streaming entry point. The transform matrix
// resolution is derived from each histogram's length via emf.InputBuckets,
// so a histogram accumulated at the d′ that BucketCounts would have picked
// reproduces Estimate on the same reports exactly. Under AutoOPrime the
// Theorem 2 trimmed mean is computed from the smallest-budget histogram
// (bucket centers stand in for the sorted raw reports), the only place the
// two paths can differ — by at most one bucket width.
func (d *meanDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	matrices, err := d.matrices(hc)
	if err != nil {
		return nil, err
	}
	// The mean pipeline needs the report sums (Eq. 13); without them every
	// group mean would silently collapse toward 0. Only the SW path, which
	// reads means off the reconstructed histogram, may omit them.
	if hc.Sums == nil {
		return nil, badCollection("mean estimation requires report sums")
	}
	return d.estimate(matrices, hc, nil, WarmFromContext(ctx))
}

// estimate runs stages 3–5 over the per-group sufficient statistic.
// probeRaw carries the smallest-budget group's raw reports for Theorem 2's
// AutoOPrime trimmed mean; the histogram entry point passes nil and the
// trimmed mean falls back to bucket centers. warm optionally seeds every
// solver run from a previous estimate's fits.
func (d *meanDAP) estimate(matrices []*emf.Matrix, hc *HistCollection, probeRaw []float64, warm *WarmState) (*Result, error) {
	h := d.H()
	var diag emfDiag
	// Stage 3: probe side and γ̂ at the smallest budget (group h−1).
	m, counts, probeCfg := matrices[h-1], hc.Counts[h-1], d.cfg(d.groups[h-1].Eps)
	oPrime := d.sp.OPrime
	probe, err := emf.ProbeSideInit(m, counts, oPrime, probeCfg, warm.probeLeft(), warm.probeRight())
	if err != nil {
		return nil, err
	}
	diag.observe(probe.Left, probe.Right)
	if d.sp.AutoOPrime {
		// Theorem 2: trim the suspected-poisoned tail of the smallest-budget
		// reports (PM reports are unbiased, so their trimmed mean lives on
		// the input scale) and re-probe around the pessimistic O′. The
		// re-probe solves the same counts with shifted poison sets, so the
		// first probe's fits are its natural seeds.
		if probeRaw != nil {
			oPrime = PessimisticO(probeRaw, d.sp.GammaSup, probe.Side == emf.Right)
		} else {
			oPrime = PessimisticOHist(counts, outCenters(m), d.sp.GammaSup, probe.Side == emf.Right)
		}
		oPrime = stats.Clamp(oPrime, -1, 1)
		if probe, err = emf.ProbeSideInit(m, counts, oPrime, probeCfg, probe.Left, probe.Right); err != nil {
			return nil, err
		}
		diag.observe(probe.Left, probe.Right)
	}
	gamma := probe.Chosen().Gamma()

	// Stages 4–5: intra-group fits and Algorithm 5's weights.
	fits, err := d.fitGroups(matrices, hc.Counts, sidePoison(probe.Side, oPrime), gamma, probe.Chosen(), warm, diag)
	if err != nil {
		return nil, err
	}
	res := fits.result(TaskMean, gamma)
	res.Warm.probeL, res.Warm.probeR = probe.Left, probe.Right
	res.PoisonedRight, res.OPrime = probe.Side == emf.Right, oPrime
	// Read-out (Eq. 13): remove the poison mass m̂_t·mean(ŷ_t) from each
	// group's report sum and average over the remaining reports.
	res.GroupMeans = make([]float64, h)
	for t := range res.GroupMeans {
		poisonMean := emf.PoisonMean(matrices[t], fits.finals[t])
		mt := (hc.Sums[t] - fits.mHat[t]*poisonMean) / (fits.n[t] - fits.mHat[t])
		res.GroupMeans[t] = stats.Clamp(mt, -1, 1)
	}
	res.Mean = Aggregate(res.GroupMeans, res.Weights)
	return res, nil
}

// Run is Collect followed by a cold Estimate.
func (d *meanDAP) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return run(d, r, values, adv, gamma)
}

// CollectPM gathers a plain single-group PM collection at budget eps with
// the same threat model — the collection that the Ostrich and Trimming
// baselines (and the k-means defense) operate on.
func CollectPM(r *rand.Rand, values []float64, eps float64, adv attack.Adversary, gamma float64, oPrime float64) ([]float64, error) {
	mech, err := pm.New(eps)
	if err != nil {
		return nil, err
	}
	n := len(values)
	adv, nByz, err := simulated(n, 0, adv, gamma)
	if err != nil {
		return nil, err
	}
	env := attack.EnvFor(mech, oPrime)
	reports := make([]float64, 0, n)
	reports = append(reports, adv.Poison(r, env, nByz)...)
	// Only the Byzantine subset matters here (report order is irrelevant to
	// every consumer — counts, sums and trimming are order-invariant), so a
	// rejection-sampled index bitset replaces the full O(N) permutation the
	// seed version drew. At γ = 0 no selection randomness is consumed at all.
	byz := SampleSubset(r, n, nByz)
	for u, v := range values {
		if byz == nil || byz[u>>6]&(1<<(uint(u)&63)) == 0 {
			reports = append(reports, mech.Perturb(r, v))
		}
	}
	return reports, nil
}

// SampleSubset draws a uniform random k-subset of [0,n) as a bitset via
// rejection sampling (expected n·ln(n/(n−k)) draws, ≤ ~1.4k at the threat
// model's k ≤ n/2). It returns nil when k = 0.
func SampleSubset(r *rand.Rand, n, k int) []uint64 {
	if k <= 0 {
		return nil
	}
	set := make([]uint64, (n+63)/64)
	for c := 0; c < k; {
		j := uint(r.IntN(n))
		if set[j>>6]&(1<<(j&63)) == 0 {
			set[j>>6] |= 1 << (j & 63)
			c++
		}
	}
	return set
}
