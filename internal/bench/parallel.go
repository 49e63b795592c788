package bench

import "runtime"

// Jobs (panel.go) are scheduled on a bounded pool and awaited in table
// order, so any Workers setting produces byte-identical tables: every
// job's seed is fixed when it is declared (per-trial streams come from
// rng.Split inside the sim package), and collection order never depends
// on completion order.

// pool bounds the number of concurrently evaluated cells.
type pool struct {
	sem chan struct{}
}

func (c Config) newPool() *pool {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &pool{sem: make(chan struct{}, w)}
}

// future is a deferred cell result of type T.
type future[T any] struct {
	val  T
	err  error
	done chan struct{}
}

// get blocks until the cell has run.
func (f *future[T]) get() (T, error) {
	<-f.done
	return f.val, f.err
}

// submit schedules fn on the pool and returns its future.
func submit[T any](p *pool, fn func() (T, error)) *future[T] {
	f := &future[T]{done: make(chan struct{})}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem; close(f.done) }()
		f.val, f.err = fn()
	}()
	return f
}
