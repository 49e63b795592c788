package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/stats"
)

// freqSpec is the frequency task over k categories at budget (eps, eps0)
// under scheme.
func freqSpec(eps, eps0 float64, k int, scheme Scheme, opts ...Option) Spec {
	return NewSpec(FrequencyTask(k), append([]Option{WithBudget(eps, eps0), WithScheme(scheme)}, opts...)...)
}

func TestNewFreqDAPValidation(t *testing.T) {
	if _, err := Build(freqSpec(1, 0.25, 1, SchemeEMF)); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := Build(freqSpec(0, 0.25, 5, SchemeEMF)); err == nil {
		t.Fatal("bad budgets accepted")
	}
	if _, err := Build(freqSpec(1, 1e-12, 5, SchemeEMF)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("eps0 = 1e-12: err = %v, want ErrBadSpec", err)
	}
}

func TestFreqCollectValidation(t *testing.T) {
	d := build[*freqDAP](t, freqSpec(1, 0.5, 15, SchemeEMF))
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(1), 1000)
	if _, err := d.RunCats(rng.New(2), cats, nil, 0.25); err == nil {
		t.Fatal("gamma>0 without poison categories accepted")
	}
	if _, err := d.RunCats(rng.New(2), cats, []int{99}, 0.25); err == nil {
		t.Fatal("out-of-range category accepted")
	}
	if _, err := d.CollectFreq(rng.New(2), []int{1}, &attack.Targeted{Cats: []int{2}}, 0); err == nil {
		t.Fatal("too few users accepted")
	}
}

func TestFreqDAPDefendsSingleCategory(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(3), 30000)
	trueFreqs := cov.Freqs()
	for _, scheme := range Schemes() {
		d := build[*freqDAP](t, freqSpec(1, 0.25, 15, scheme))
		col, err := d.CollectFreq(rng.New(4), cats, &attack.Targeted{Cats: []int{10}}, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		est, err := d.EstimateHist(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		ostrich, err := d.OstrichFreq(col)
		if err != nil {
			t.Fatal(err)
		}
		mseDAP := stats.MSEVec(est.Freqs, trueFreqs)
		mseOst := stats.MSEVec(ostrich, trueFreqs)
		if mseDAP >= mseOst {
			t.Fatalf("%v: DAP MSE %v should beat Ostrich %v", scheme, mseDAP, mseOst)
		}
		if math.Abs(stats.Sum(est.Freqs)-1) > 1e-9 {
			t.Fatalf("%v: frequencies sum to %v", scheme, stats.Sum(est.Freqs))
		}
		// The per-group diagnostics are common to every task kind.
		if h := d.H(); len(est.GroupGammas) != h || len(est.NHat) != h || est.NHat[0] <= 0 || est.VarMin <= 0 {
			t.Fatalf("%v: per-group diagnostics not filled: γ̂_t=%v n̂_t=%v VarMin=%v",
				scheme, est.GroupGammas, est.NHat, est.VarMin)
		}
	}
}

func TestFreqDAPMultiCategory(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(5), 30000)
	trueFreqs := cov.Freqs()
	d := build[*freqDAP](t, freqSpec(1, 0.25, 15, SchemeCEMFStar))
	col, err := d.CollectFreq(rng.New(6), cats, &attack.Targeted{Cats: []int{10, 11, 12}}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	est, err := d.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	ostrich, err := d.OstrichFreq(col)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MSEVec(est.Freqs, trueFreqs) >= stats.MSEVec(ostrich, trueFreqs) {
		t.Fatal("multi-category DAP should beat Ostrich")
	}
}

func TestFreqDAPNoAttack(t *testing.T) {
	cov := dataset.COVID19()
	cats := cov.Sample(rng.New(7), 20000)
	trueFreqs := cov.Freqs()
	d := build[*freqDAP](t, freqSpec(1, 0.25, 15, SchemeEMFStar))
	est, err := d.RunCats(rng.New(8), cats, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mse := stats.MSEVec(est.Freqs, trueFreqs); mse > 0.002 {
		t.Fatalf("clean frequency MSE %v too high", mse)
	}
}

func TestFreqEstimateValidation(t *testing.T) {
	d := build[*freqDAP](t, freqSpec(1, 0.5, 5, SchemeEMF))
	if _, err := d.EstimateHist(context.Background(), nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := d.EstimateHist(context.Background(), &HistCollection{Counts: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("wrong shape accepted")
	}
}
