package core

import "sync"

// forEachGroup runs f(0..h-1) on one goroutine per group and returns the
// first (lowest-index) error. Per-group work writes only to index-t slots,
// so the fan-out is deterministic: the collector side produces bit-identical
// estimates whether groups run sequentially or in parallel. h is the group
// count (⌈log₂(ε/ε₀)⌉+1 ≤ MaxGroups), so goroutine overhead is negligible
// next to one EM fit.
func forEachGroup(h int, f func(t int) error) error {
	if h == 1 {
		return f(0)
	}
	errs := make([]error, h)
	var wg sync.WaitGroup
	wg.Add(h)
	for t := 0; t < h; t++ {
		go func(t int) {
			defer wg.Done()
			errs[t] = f(t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
