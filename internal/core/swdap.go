package core

import (
	"context"
	"math/rand/v2"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/sw"
	"repro/internal/stats"
)

// swDAP is the Square Wave instantiation of the protocol (§V-D):
// TaskDistribution's estimator. Inputs live in [0,1], perturbation uses
// SW, reconstruction uses EMS (EM with smoothing), and the mean is read
// off the reconstructed input histogram rather than the report sum.
type swDAP struct {
	solver
	mechs []*sw.Mechanism
}

func newSWDAP(sp Spec) (*swDAP, error) {
	s, mechs, err := newSolver(sp, true, sw.New)
	if err != nil {
		return nil, err
	}
	s.matrix = func(t, dprime int) (*emf.Matrix, error) { return numericMatrix(mechs[t], dprime) }
	return &swDAP{solver: s, mechs: mechs}, nil
}

// OutputDomain returns group t's SW output interval.
func (d *swDAP) OutputDomain(t int) ldp.Domain { return d.mechs[t].OutputDomain() }

// Collect simulates the user side over values in [0,1].
func (d *swDAP) Collect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Collection, error) {
	n, h := len(values), d.H()
	adv, nByz, err := simulated(n, h, adv, gamma)
	if err != nil {
		return nil, err
	}
	perm := r.Perm(n)
	isByz := make([]bool, n)
	for _, u := range perm[:nByz] {
		isByz[u] = true
	}
	assign := r.Perm(n)
	col := &Collection{Groups: make([][]float64, h), ByzCount: nByz}
	for t := 0; t < h; t++ {
		lo, hi := t*n/h, (t+1)*n/h
		g := d.groups[t]
		mech := d.mechs[t]
		env := attack.EnvFor(mech, 0.5) // O anchored mid-domain for ranges
		env.Group = t
		reports := make([]float64, 0, (hi-lo)*g.Reports)
		for _, u := range assign[lo:hi] {
			if isByz[u] {
				reports = append(reports, adv.Poison(r, env, g.Reports)...)
			} else {
				for k := 0; k < g.Reports; k++ {
					reports = append(reports, mech.Perturb(r, values[u]))
				}
			}
		}
		col.Groups[t] = reports
	}
	return col, nil
}

// Estimate runs the collector side over an SW collection; a warm state
// attached to ctx seeds the solver runs (see WarmState).
func (d *swDAP) Estimate(ctx context.Context, col *Collection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	hc, matrices, err := d.reduce(col)
	if err != nil {
		return nil, err
	}
	h := d.H()
	trimmed := matrices[h-1].Counts(trimTop(col.Groups[h-1], d.trimFrac()))
	return d.estimate(matrices, hc, trimmed, WarmFromContext(ctx))
}

// EstimateHist runs the SW collector pipeline directly from per-group
// histograms. The §V-D pessimistic O′ (trimmed EMS at the smallest budget)
// trims histogram mass instead of sorted raw reports; everything else is
// the batch path fed by the same sufficient statistic. Sums are not used —
// SW means come from the reconstructed input histogram.
func (d *swDAP) EstimateHist(ctx context.Context, hc *HistCollection) (*Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	matrices, err := d.matrices(hc)
	if err != nil {
		return nil, err
	}
	return d.estimate(matrices, hc, trimHistTop(hc.Counts[d.H()-1], d.trimFrac()), WarmFromContext(ctx))
}

// trimTop removes the largest frac of the reports (pessimistic against a
// right-side attack, mirroring Theorem 2's default orientation); a trim
// that would leave nothing returns them all.
func trimTop(reports []float64, frac float64) []float64 {
	cut := stats.Quantile(reports, 1-frac)
	kept := make([]float64, 0, len(reports))
	for _, v := range reports {
		if v <= cut {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return reports
	}
	return kept
}

// estimate runs the SW collector stages over the per-group sufficient
// statistic. trimmed is the smallest-budget histogram with its top TrimFrac
// removed (from raw reports by Estimate, from histogram mass by
// EstimateHist); warm optionally seeds every solver run.
func (d *swDAP) estimate(matrices []*emf.Matrix, hc *HistCollection, trimmed []float64, warm *WarmState) (*Result, error) {
	h := d.H()
	m := matrices[h-1]
	// Stage 3: the pessimistic O′ is the mean of a plain EMS fit of the
	// trimmed histogram (§V-D's analogue of Theorem 2); then probe side and
	// γ̂ around it at the smallest budget.
	oFit, err := emf.RunConstrained(m, trimmed, nil, 0,
		emf.Config{Smooth: true, MaxIter: d.sp.EMFMaxIter, Accelerate: true, Init: warm.oSeed()})
	if err != nil {
		return nil, err
	}
	oPrime := stats.Clamp(stats.HistMean(oFit.X, m.InCenters()), 0, 1)
	probe, err := emf.ProbeSideInit(m, hc.Counts[h-1], oPrime, d.cfg(d.groups[h-1].Eps),
		warm.probeLeft(), warm.probeRight())
	if err != nil {
		return nil, err
	}
	var diag emfDiag
	diag.observe(oFit, probe.Left, probe.Right)
	gamma := probe.Chosen().Gamma()

	fits, err := d.fitGroups(matrices, hc.Counts, sidePoison(probe.Side, oPrime), gamma, probe.Chosen(), warm, diag)
	if err != nil {
		return nil, err
	}
	res := fits.result(TaskDistribution, gamma)
	res.Warm.probeL, res.Warm.probeR, res.Warm.oFit = probe.Left, probe.Right, oFit
	res.PoisonedRight, res.OPrime = probe.Side == emf.Right, oPrime
	// Read-out: the SW mean comes from each group's reconstructed input
	// histogram, and the distribution estimate accumulates the normalized
	// x̂_t weighted by n̂_t, in group order at group 0's resolution.
	res.GroupMeans = make([]float64, h)
	var xAgg []float64
	for t, fit := range fits.finals {
		res.GroupMeans[t] = stats.Clamp(stats.HistMean(fit.X, matrices[t].InCenters()), 0, 1)
		xn := stats.Normalize(fit.X)
		if xAgg == nil {
			xAgg = make([]float64, len(xn))
		}
		if len(xn) == len(xAgg) {
			for k := range xn {
				xAgg[k] += res.NHat[t] * xn[k]
			}
		}
	}
	res.Mean = Aggregate(res.GroupMeans, res.Weights)
	res.XHat = stats.Normalize(xAgg)
	return res, nil
}

// Run is Collect followed by a cold Estimate.
func (d *swDAP) Run(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*Result, error) {
	return run(d, r, values, adv, gamma)
}

// trimFrac is the fraction removed from the top before the pessimistic O′
// fit (§V-D prescribes 50%).
func (d *swDAP) trimFrac() float64 {
	if d.sp.TrimFrac > 0 {
		return d.sp.TrimFrac
	}
	return 0.5
}

// SWSingle reconstructs the input distribution from one single-budget SW
// collection — the Fig. 8(a) distribution-estimation experiment. Scheme
// selects the poison handling; SchemeOstrich-like behaviour (plain EMS,
// poison ignored) is obtained with IgnorePoison.
type SWSingle struct {
	Eps float64
	// Scheme selects EMF, EMF* or CEMF*.
	Scheme Scheme
	// IgnorePoison runs plain EMS with no poison components (the Ostrich
	// distribution baseline).
	IgnorePoison bool
	// EMFMaxIter caps EM iterations (0 selects the emf default).
	EMFMaxIter int
}

// Reconstruct returns the normalized input histogram estimate and the
// bucket centers.
func (s *SWSingle) Reconstruct(reports []float64) (xhat, centers []float64, err error) {
	mech, err := sw.New(s.Eps)
	if err != nil {
		return nil, nil, err
	}
	m, err := numericMatrix(mech, emf.OutputBuckets(len(reports)))
	if err != nil {
		return nil, nil, err
	}
	counts := m.Counts(reports)
	sv := solver{sp: Spec{EMFMaxIter: s.EMFMaxIter}, scheme: s.Scheme, smooth: true}
	var res *emf.Result
	if s.IgnorePoison {
		res, err = emf.RunConstrained(m, counts, nil, 0, sv.cfg(s.Eps))
	} else {
		// O anchored mid-domain; the probe's chosen fit is the plain fit the
		// scheme starts from.
		var probe *emf.SideProbe
		if probe, err = emf.ProbeSide(m, counts, 0.5, sv.cfg(s.Eps)); err != nil {
			return nil, nil, err
		}
		base := probe.Chosen()
		res, _, _, err = sv.fit(m, counts, sidePoison(probe.Side, 0.5)(m), base.Gamma(), s.Eps, base, nil, base)
	}
	if err != nil {
		return nil, nil, err
	}
	return stats.Normalize(res.X), m.InCenters(), nil
}
