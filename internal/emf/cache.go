package emf

import (
	"sync"

	"repro/internal/ldp"
)

// Transform matrices are pure functions of (mechanism, d, d′): the numeric
// build integrates the mechanism's output density over every (input,
// output) bucket pair, which repeated Estimate/trial calls used to redo
// from scratch. Built matrices are immutable after construction, so they
// are cached process-wide and shared freely across goroutines. Mechanism
// names embed every distribution parameter (e.g. "PM(ε=0.5)",
// "kRR(ε=1,k=15)"), making (Name, d, d′) a sound cache key.

type matrixKey struct {
	name      string
	d, dprime int
}

var matrixCache sync.Map // matrixKey → *Matrix

// BuildNumericCached returns the transform matrix for (mech, d, dprime),
// building it at most once per process.
func BuildNumericCached(mech ldp.IntervalProber, d, dprime int) (*Matrix, error) {
	key := matrixKey{mech.Name(), d, dprime}
	if v, ok := matrixCache.Load(key); ok {
		return v.(*Matrix), nil
	}
	m, err := BuildNumeric(mech, d, dprime)
	if err != nil {
		return nil, err
	}
	v, _ := matrixCache.LoadOrStore(key, m)
	return v.(*Matrix), nil
}

// BuildCategoricalCached is BuildCategorical with the same process-wide
// cache (keyed by the mechanism name, which embeds ε and K).
func BuildCategoricalCached(mech ldp.Categorical) *Matrix {
	key := matrixKey{mech.Name(), mech.K(), mech.K()}
	if v, ok := matrixCache.Load(key); ok {
		return v.(*Matrix)
	}
	m := BuildCategorical(mech)
	v, _ := matrixCache.LoadOrStore(key, m)
	return v.(*Matrix)
}
