package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
	"repro/internal/stats"
)

func values01(seed uint64, n int) ([]float64, float64) {
	r := rng.New(seed)
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = rng.Beta(r, 2, 5)
		sum += vals[i]
	}
	return vals, sum / float64(n)
}

// swSpec is the distribution task at budget (eps, eps0) under scheme.
func swSpec(eps, eps0 float64, scheme Scheme, opts ...Option) Spec {
	return NewSpec(DistributionTask(), append([]Option{WithBudget(eps, eps0), WithScheme(scheme)}, opts...)...)
}

func TestNewSWDAPValidation(t *testing.T) {
	if _, err := Build(swSpec(0, 1, SchemeEMF)); err == nil {
		t.Fatal("bad budgets accepted")
	}
	if _, err := Build(swSpec(1, 1e-12, SchemeEMF)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("eps0 = 1e-12: err = %v, want ErrBadSpec", err)
	}
}

func TestSWDAPNoAttack(t *testing.T) {
	d := build[*swDAP](t, swSpec(1, 0.25, SchemeEMFStar))
	vals, trueMean := values01(1, 15000)
	est, err := d.Run(rng.New(2), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.08 {
		t.Fatalf("clean SW estimate %v, want ~%v", est.Mean, trueMean)
	}
	if len(est.XHat) == 0 {
		t.Fatal("XHat missing")
	}
	if math.Abs(stats.Sum(est.XHat)-1) > 1e-6 {
		t.Fatalf("XHat sums to %v", stats.Sum(est.XHat))
	}
}

func TestSWDAPDefends(t *testing.T) {
	vals, trueMean := values01(3, 15000)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := build[*swDAP](t, swSpec(1, 0.25, SchemeEMFStar))
	est, err := d.Run(rng.New(4), vals, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Ostrich for SW: plain EMS including poison, single group.
	mech := sw.MustNew(1)
	r := rng.New(4)
	reports := make([]float64, 0, len(vals))
	env := attack.EnvFor(mech, 0.5)
	nByz := len(vals) / 4
	reports = append(reports, adv.Poison(r, env, nByz)...)
	for _, v := range vals[nByz:] {
		reports = append(reports, mech.Perturb(r, v))
	}
	single := &SWSingle{Eps: 1, IgnorePoison: true}
	xhat, centers, err := single.Reconstruct(reports)
	if err != nil {
		t.Fatal(err)
	}
	ostrich := stats.HistMean(xhat, centers)
	if math.Abs(est.Mean-trueMean) >= math.Abs(ostrich-trueMean) {
		t.Fatalf("SW DAP (%v) should beat Ostrich (%v) vs truth %v", est.Mean, ostrich, trueMean)
	}
	if !est.PoisonedRight {
		t.Fatal("SW side probe failed")
	}
}

func TestSWSingleReconstructsDistribution(t *testing.T) {
	r := rng.New(5)
	mech := sw.MustNew(1)
	vals, _ := values01(6, 20000)
	reports := make([]float64, len(vals))
	for i, v := range vals {
		reports[i] = mech.Perturb(r, v)
	}
	s := &SWSingle{Eps: 1, IgnorePoison: true}
	xhat, centers, err := s.Reconstruct(reports)
	if err != nil {
		t.Fatal(err)
	}
	if len(xhat) != len(centers) {
		t.Fatal("length mismatch")
	}
	// Beta(2,5) has most mass below 0.5.
	var lowMass float64
	for k, c := range centers {
		if c < 0.5 {
			lowMass += xhat[k]
		}
	}
	if lowMass < 0.7 {
		t.Fatalf("reconstructed low mass %v, want > 0.7", lowMass)
	}
	// Wasserstein distance to the true histogram should be small.
	trueHist := stats.Histogram(vals, 0, 1, len(xhat))
	// Reconstructed support differs from [0,1]; compare means instead.
	recMean := stats.HistMean(xhat, centers)
	if math.Abs(recMean-stats.Mean(vals)) > 0.05 {
		t.Fatalf("reconstructed mean %v vs true %v", recMean, stats.Mean(vals))
	}
	_ = trueHist
}

func TestSWSingleSchemes(t *testing.T) {
	r := rng.New(7)
	mech := sw.MustNew(0.5)
	vals, trueMean := values01(8, 15000)
	env := attack.EnvFor(mech, 0.5)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	nByz := len(vals) / 4
	reports := append([]float64(nil), adv.Poison(r, env, nByz)...)
	for _, v := range vals[nByz:] {
		reports = append(reports, mech.Perturb(r, v))
	}
	for _, scheme := range Schemes() {
		s := &SWSingle{Eps: 0.5, Scheme: scheme}
		xhat, centers, err := s.Reconstruct(reports)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		mean := stats.HistMean(xhat, centers)
		if math.Abs(mean-trueMean) > 0.2 {
			t.Fatalf("%v: reconstructed mean %v vs truth %v", scheme, mean, trueMean)
		}
	}
}
