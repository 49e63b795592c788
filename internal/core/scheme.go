// Package core implements the paper's protocols: the baseline two-budget
// protocol of §IV and the multi-group Differential Aggregation Protocol
// (DAP) of §V, with the EMF/EMF*/CEMF* estimation schemes, Theorem 2's
// pessimistic mean initialization, Algorithm 5's variance-optimal
// inter-group aggregation, and the §V-D extensions to the Square Wave
// mechanism and to categorical frequency estimation.
package core

import (
	"math"
)

// Scheme selects the EMF post-processing used for intra-group estimation.
type Scheme int

// Estimation schemes in the paper's order.
const (
	// SchemeEMF uses plain EMF (Algorithm 2); each group probes its own γ̂.
	SchemeEMF Scheme = iota
	// SchemeEMFStar post-processes with EMF* (Algorithm 4), imposing the
	// γ̂ probed at the smallest budget on every group.
	SchemeEMFStar
	// SchemeCEMFStar post-processes with CEMF* (Theorem 5), additionally
	// suppressing poison buckets below the concentration threshold.
	SchemeCEMFStar
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeEMF:
		return "EMF"
	case SchemeEMFStar:
		return "EMF*"
	case SchemeCEMFStar:
		return "CEMF*"
	}
	return "unknown"
}

// Schemes lists all estimation schemes in paper order.
func Schemes() []Scheme { return []Scheme{SchemeEMF, SchemeEMFStar, SchemeCEMFStar} }

// ParseScheme parses a scheme name as accepted on command lines and wire
// requests ("emf", "emfstar"/"emf*", "cemf"/"cemf*"/"cemfstar"; empty
// selects CEMF*, the paper's best performer).
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "emf", "EMF":
		return SchemeEMF, nil
	case "emfstar", "emf*", "EMF*":
		return SchemeEMFStar, nil
	case "", "cemf", "cemf*", "cemfstar", "CEMF*":
		return SchemeCEMFStar, nil
	}
	return 0, badSpec("unknown scheme %q", s)
}

// ConfidenceInterval returns a two-sided normal-approximation interval
// around the aggregated mean using Theorem 6's worst-case variance bound.
// level is the coverage (e.g. 0.95). Because VarMin is a worst-case
// bound, the interval is conservative.
func (r *Result) ConfidenceInterval(level float64) (lo, hi float64) {
	if level <= 0 || level >= 1 || r.VarMin <= 0 {
		return r.Mean, r.Mean
	}
	half := zScore(level) * math.Sqrt(r.VarMin)
	return r.Mean - half, r.Mean + half
}

// zScore inverts the standard normal CDF for two-sided coverage via
// bisection on erf (stdlib-only, no lookup tables).
func zScore(level float64) float64 {
	target := level // P(|Z| <= z) = erf(z/√2)
	lo, hi := 0.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if math.Erf(mid/math.Sqrt2) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// validateBudgets sanity-checks a (ε, ε0) pair and bounds the group count
// it implies by MaxGroups.
func validateBudgets(eps, eps0 float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return badSpec("eps must be positive and finite")
	}
	if eps0 <= 0 || eps0 > eps {
		return badSpec("eps0 must lie in (0, eps]")
	}
	if eps/eps0 > 1<<(MaxGroups-1) {
		return badSpec("eps/eps0 must not exceed 2^%d (at most %d groups)", MaxGroups-1, MaxGroups)
	}
	return nil
}

// groupCount returns h = ⌈log₂(ε/ε₀)⌉ + 1 (§V-A).
func groupCount(eps, eps0 float64) int {
	return int(math.Ceil(math.Log2(eps/eps0)-1e-12)) + 1
}
