package emf

import (
	"sync"

	"repro/internal/stats"
)

// Side identifies the poisoned side of the perturbation domain relative to
// the pessimistic mean O′.
type Side int

// Poisoned side values.
const (
	Left Side = iota
	Right
)

// SideProbe holds the outcome of Algorithm 3.
type SideProbe struct {
	Side  Side
	Left  *Result // EMF run with poison buckets on the left of O′
	Right *Result // EMF run with poison buckets on the right of O′
	VarL  float64 // Variance(x̂_L)
	VarR  float64 // Variance(x̂_R)
}

// Chosen returns the EMF result for the selected poisoned side.
func (p *SideProbe) Chosen() *Result {
	if p.Side == Left {
		return p.Left
	}
	return p.Right
}

// ProbeSide implements Algorithm 3: it runs EMF twice, once with the
// poison components on each side of oPrime, and selects the side whose
// reconstructed normal-user histogram x̂ has the smaller variance
// (Theorem 3: under the correct side x̂ tends to uniform).
func ProbeSide(m *Matrix, counts []float64, oPrime float64, cfg Config) (*SideProbe, error) {
	return ProbeSideInit(m, counts, oPrime, cfg, cfg.Init, cfg.Init)
}

// ProbeSideInit is ProbeSide with per-side warm starts: initL seeds the
// left-poison fit and initR the right-poison fit (either may be nil, or
// mismatched and ignored — see Config.Init). A previous probe's Left and
// Right results are the natural arguments when re-probing the same counts
// around a shifted O′, or the same layout across stream epochs.
func ProbeSideInit(m *Matrix, counts []float64, oPrime float64, cfg Config, initL, initR *Result) (*SideProbe, error) {
	cfgL, cfgR := cfg, cfg
	cfgL.Init, cfgR.Init = initL, initR
	// The two probes are independent EM fits over shared immutable inputs;
	// overlap them (the caller blocks on both, so the result is unchanged).
	var (
		left, right *Result
		errL, errR  error
		wg          sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		left, errL = Run(m, counts, m.PoisonLeft(oPrime), cfgL)
	}()
	right, errR = Run(m, counts, m.PoisonRight(oPrime), cfgR)
	wg.Wait()
	if errL != nil {
		return nil, errL
	}
	if errR != nil {
		return nil, errR
	}
	p := &SideProbe{
		Left:  left,
		Right: right,
		VarL:  stats.Variance(left.X),
		VarR:  stats.Variance(right.X),
	}
	if p.VarL < p.VarR {
		p.Side = Left
	} else {
		p.Side = Right
	}
	return p, nil
}

// ProbeCategories locates poisoned categories for the categorical (k-RR)
// extension of §V-D by applying Algorithm 3 recursively: the category set
// is split into halves, EMF is run with each half as the poison set, the
// half yielding the smaller Var(x̂) is selected, and the recursion descends
// while a child half keeps improving the variance. The returned set is the
// narrowest contiguous block of categories that minimizes Var(x̂); the
// accompanying result is the EMF run for that block.
func ProbeCategories(m *Matrix, counts []float64, cfg Config) ([]int, *Result, error) {
	all := make([]int, m.DPrime)
	for i := range all {
		all[i] = i
	}
	best, bestRes, err := probeHalves(m, counts, all, cfg)
	if err != nil {
		return nil, nil, err
	}
	bestVar := stats.Variance(bestRes.X)
	for len(best) > 1 {
		set, res, err := probeHalves(m, counts, best, cfg)
		if err != nil {
			return nil, nil, err
		}
		v := stats.Variance(res.X)
		if v >= bestVar {
			break
		}
		best, bestRes, bestVar = set, res, v
	}
	return best, bestRes, nil
}

// probeHalves runs EMF with each half of set as the poison set and
// returns the half with the smaller Var(x̂).
func probeHalves(m *Matrix, counts []float64, set []int, cfg Config) ([]int, *Result, error) {
	mid := len(set) / 2
	if mid == 0 {
		res, err := Run(m, counts, set, cfg)
		return set, res, err
	}
	lo, hi := set[:mid], set[mid:]
	resLo, err := Run(m, counts, lo, cfg)
	if err != nil {
		return nil, nil, err
	}
	resHi, err := Run(m, counts, hi, cfg)
	if err != nil {
		return nil, nil, err
	}
	if stats.Variance(resLo.X) < stats.Variance(resHi.X) {
		return lo, resLo, nil
	}
	return hi, resHi, nil
}
