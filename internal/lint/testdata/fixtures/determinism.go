// Fixture for the determinism analyzer, type-checked as
// repro/internal/stream. Positive cases carry want comments; the rest
// must stay silent.
package stream

import (
	"math/rand"
	"time"
)

// estimateBad is an entry by prefix; every nondeterminism fires.
func estimateBad(m map[string]float64) float64 {
	_ = time.Now() // want determinism "wall clock"
	var s float64
	for _, v := range m {
		s += v // want determinism "map-iteration order"
	}
	s += rand.Float64() // want determinism "randomness"
	return s
}

// estimateViaHelper only calls a helper; the closure walk carries the
// entry obligation into it.
func estimateViaHelper() {
	deepClock()
}

func deepClock() {
	_ = time.Since(time.Time{}) // want determinism "wall clock"
}

// replayCounts is a replay entry; integer accumulation over a map is
// order-independent and must stay silent, as must ranging a slice.
func replayCounts(m map[string]int, vs []float64) (int, float64) {
	n := 0
	for _, v := range m {
		n += v
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return n, s
}

// notAnEntryPoint is unreachable from any entry: the wall clock is fine
// here (rotation timers, metrics).
func notAnEntryPoint() time.Time {
	return time.Now()
}

// estimateAnnotated shows the justified escape hatch.
func estimateAnnotated() {
	_ = time.Now() //dapvet:determinism-ok timing metric, not estimate state
}
