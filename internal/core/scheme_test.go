package core

import (
	"math"
	"testing"
)

func TestZScoreKnownValues(t *testing.T) {
	// Standard two-sided z-scores.
	cases := map[float64]float64{
		0.6827: 1.0,
		0.9545: 2.0,
		0.95:   1.9600,
		0.99:   2.5758,
	}
	for level, want := range cases {
		if got := zScore(level); math.Abs(got-want) > 0.001 {
			t.Fatalf("zScore(%v) = %v, want %v", level, got, want)
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	e := &Result{Mean: 0.2, VarMin: 0.0004} // sd = 0.02
	lo, hi := e.ConfidenceInterval(0.9545)
	if math.Abs(lo-(0.2-0.04)) > 1e-3 || math.Abs(hi-(0.2+0.04)) > 1e-3 {
		t.Fatalf("CI = [%v, %v], want [0.16, 0.24]", lo, hi)
	}
	// Degenerate inputs collapse to the point estimate.
	if lo, hi := e.ConfidenceInterval(0); lo != 0.2 || hi != 0.2 {
		t.Fatalf("level=0 CI = [%v, %v]", lo, hi)
	}
	zeroVar := &Result{Mean: 0.1}
	if lo, hi := zeroVar.ConfidenceInterval(0.95); lo != 0.1 || hi != 0.1 {
		t.Fatalf("VarMin=0 CI = [%v, %v]", lo, hi)
	}
}

func TestConfidenceIntervalWidensWithLevel(t *testing.T) {
	e := &Result{Mean: 0, VarMin: 1}
	lo90, hi90 := e.ConfidenceInterval(0.90)
	lo99, hi99 := e.ConfidenceInterval(0.99)
	if hi99-lo99 <= hi90-lo90 {
		t.Fatal("99% interval should be wider than 90%")
	}
}
