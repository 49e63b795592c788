package bench

import (
	"reflect"
	"testing"
)

// TestWorkersDeterminism: the concurrent cell pool must produce
// byte-identical tables for any worker count and on repeated runs — the
// acceptance property of the parallel Monte-Carlo harness.
func TestWorkersDeterminism(t *testing.T) {
	for _, exp := range []string{"table1", "fig5", "ablation", "fig8", "fig9", "matrix"} {
		base := Config{N: 1500, Trials: 2, Seed: 11, EMFMaxIter: 40, Workers: 1}
		seq, err := Run(exp, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 8} {
			cfg := base
			cfg.Workers = workers
			par, err := Run(exp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: tables differ between Workers=1 and Workers=%d", exp, workers)
			}
		}
	}
}

// TestRunRepeatable: same config twice ⇒ identical tables (no hidden
// shared state across runs — matrix caching and state pooling must be
// invisible).
func TestRunRepeatable(t *testing.T) {
	cfg := Config{N: 1500, Trials: 2, Seed: 3, EMFMaxIter: 40}
	a, err := Run("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fig5 tables differ between identical runs")
	}
}

func TestFig5Cell(t *testing.T) {
	v, err := Fig5Cell(Config{N: 1500, Trials: 1, Seed: 2, EMFMaxIter: 40}, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > 1 {
		t.Fatalf("Fig5Cell |γ̂−γ| = %v outside [0,1]", v)
	}
}
