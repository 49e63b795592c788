package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
)

func TestRepeatDeterministic(t *testing.T) {
	fn := func(r *rand.Rand) (float64, error) { return r.Float64(), nil }
	a, err := Repeat(7, 16, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Repeat(7, 16, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Repeat not deterministic across runs")
		}
	}
}

func TestRepeatStreamsIndependent(t *testing.T) {
	fn := func(r *rand.Rand) (float64, error) { return r.Float64(), nil }
	out, err := Repeat(1, 32, fn)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatal("duplicate trial values: streams correlated")
		}
		seen[v] = true
	}
}

func TestRepeatZeroTrials(t *testing.T) {
	out, err := Repeat(1, 0, func(r *rand.Rand) (float64, error) { return 1, nil })
	if err != nil || out != nil {
		t.Fatalf("zero trials: %v %v", out, err)
	}
}

func TestRepeatPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Repeat(1, 8, func(r *rand.Rand) (float64, error) {
		if r.Float64() < 2 { // always
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}
