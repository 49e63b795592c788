// Package sim runs repeated Monte-Carlo protocol trials in parallel with
// deterministic per-trial randomness — the engine behind every MSE figure
// in the experiment harness.
package sim

import (
	"math/rand/v2"
	"runtime"
	"sync"

	"repro/internal/rng"
)

// Repeat runs fn for the given number of trials, each with an independent
// deterministic stream derived from seed (rng.Split by trial index),
// spread over a GOMAXPROCS-bounded worker pool. Results are ordered by
// trial index; the lowest-index error (if any) is returned alongside
// whatever completed.
func Repeat[T any](seed uint64, trials int, fn func(r *rand.Rand) (T, error)) ([]T, error) {
	if trials <= 0 {
		return nil, nil
	}
	out := make([]T, trials)
	errs := make([]error, trials)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = fn(rng.Split(seed, uint64(i)))
			}
		}()
	}
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
