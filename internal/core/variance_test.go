package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/stats"
)

// varianceSpec is the variance task at budget (eps, eps0) under scheme.
func varianceSpec(eps, eps0 float64, scheme Scheme) Spec {
	return NewSpec(VarianceTask(), WithBudget(eps, eps0), WithScheme(scheme))
}

// varianceReference is the variance task composed by hand: splitMoments
// and two mean-task estimators, each run on its half. The variance
// estimator Build returns must match it bit for bit.
func varianceReference(t *testing.T, sp Spec, r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (variance, secondMoment float64, meanEst, momentEst *Result) {
	t.Helper()
	meanVals, momentVals, err := splitMoments(r, values)
	if err != nil {
		t.Fatal(err)
	}
	sp.Task = TaskMean
	if meanEst, err = build[Runner](t, sp).Run(r, meanVals, adv, gamma); err != nil {
		t.Fatal(err)
	}
	if momentEst, err = build[Runner](t, sp).Run(r, momentVals, adv, gamma); err != nil {
		t.Fatal(err)
	}
	secondMoment = stats.Clamp((momentEst.Mean+1)/2, 0, 1)
	return math.Max(0, secondMoment-meanEst.Mean*meanEst.Mean), secondMoment, meanEst, momentEst
}

// checkVarianceReference runs sp's variance estimator and the hand
// composition on the same seed and requires identical moments.
func checkVarianceReference(t *testing.T, sp Spec, seed uint64, values []float64, adv attack.Adversary, gamma float64) (est, meanEst, momentEst *Result) {
	t.Helper()
	est, err := build[Runner](t, sp).Run(rng.New(seed), values, adv, gamma)
	if err != nil {
		t.Fatal(err)
	}
	variance, m2, meanEst, momentEst := varianceReference(t, sp, rng.New(seed), values, adv, gamma)
	if est.Variance != variance || est.SecondMoment != m2 || est.Mean != meanEst.Mean {
		t.Fatalf("variance task (%v, %v, %v) != reference composition (%v, %v, %v)",
			est.Variance, est.SecondMoment, est.Mean, variance, m2, meanEst.Mean)
	}
	return est, meanEst, momentEst
}

func TestVarianceEstimatorValidation(t *testing.T) {
	ve := build[Runner](t, varianceSpec(1, 0.25, SchemeEMF))
	if _, err := ve.Run(rng.New(1), []float64{1, 2}, nil, 0); err == nil {
		t.Fatal("too few users accepted")
	}
	if _, err := Build(varianceSpec(0, 1, SchemeEMF)); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestVarianceEstimatorClean(t *testing.T) {
	vals, _ := uniformValues(1, 30000, -0.6, 0.6)
	trueVar := stats.Variance(vals)
	est, _, _ := checkVarianceReference(t, varianceSpec(1, 1.0/16, SchemeEMFStar), 2, vals, attack.None{}, 0)
	if math.Abs(est.Variance-trueVar) > 0.08 {
		t.Fatalf("variance %v, want ~%v", est.Variance, trueVar)
	}
	if est.Variance < 0 || est.SecondMoment < 0 || est.SecondMoment > 1 {
		t.Fatalf("invalid moments: %+v", est)
	}
}

func TestVarianceEstimatorUnderAttack(t *testing.T) {
	vals, _ := uniformValues(3, 30000, -0.6, 0.6)
	trueVar := stats.Variance(vals)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	est, meanEst, momentEst := checkVarianceReference(t, varianceSpec(1, 1.0/16, SchemeEMFStar), 4, vals, adv, 0.25)
	// The attack drags both moments; the defense must keep the variance
	// in the right ballpark where the naive estimate explodes.
	if math.Abs(est.Variance-trueVar) > 0.15 {
		t.Fatalf("defended variance %v, want ~%v", est.Variance, trueVar)
	}
	if meanEst == nil || momentEst == nil || len(est.GroupMeans) != len(meanEst.GroupMeans)+len(momentEst.GroupMeans) {
		t.Fatal("underlying estimates missing")
	}
}

func TestDAPAutoOPrime(t *testing.T) {
	vals, trueMean := uniformValues(5, 15000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMFStar, WithAutoOPrime(0)))
	est, err := d.Run(rng.New(6), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2: with a right-side attack, O′ must sit at or below the
	// true mean so no poison values escape the analysis.
	if est.OPrime > trueMean+0.05 {
		t.Fatalf("O′ = %v above true mean %v", est.OPrime, trueMean)
	}
	if !est.PoisonedRight {
		t.Fatal("side probe failed under AutoOPrime")
	}
	if math.Abs(est.Mean-trueMean) > 0.2 {
		t.Fatalf("AutoOPrime estimate %v vs truth %v", est.Mean, trueMean)
	}
}

func TestDAPFixedOPrimeRecorded(t *testing.T) {
	vals, _ := uniformValues(7, 9000, -0.5, 0.5)
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMF, WithOPrime(0.1)))
	est, err := d.Run(rng.New(8), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.OPrime != 0.1 {
		t.Fatalf("recorded O′ = %v, want 0.1", est.OPrime)
	}
}
