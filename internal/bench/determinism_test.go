package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestWorkersDeterminism: the concurrent cell pool must produce
// byte-identical tables for any worker count and on repeated runs — the
// acceptance property of the parallel Monte-Carlo harness.
func TestWorkersDeterminism(t *testing.T) {
	mean, err := core.LoadSpec("../../specs/mean.json")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{N: 1500, Trials: 2, Seed: 11, EMFMaxIter: 40, Workers: 1}
	// The MSE panels and the spec sweep run smaller, so the package's test
	// time stays flat.
	small := Config{N: 600, Trials: 2, Seed: 11, EMFMaxIter: 30, Workers: 1}
	spec := small
	spec.Spec = &mean
	for _, tc := range []struct {
		exp string
		cfg Config
	}{
		{"table1", base}, {"fig5", base}, {"ablation", base}, {"fig8", base}, {"fig9", base}, {"matrix", base},
		{"fig6", small}, {"fig7", small}, {"fig10", small}, {"spec", spec},
	} {
		seq, err := Run(tc.exp, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			par, err := Run(tc.exp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: tables differ between Workers=1 and Workers=%d", tc.exp, workers)
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
