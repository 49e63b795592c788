package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/rng"
	"repro/internal/stats"
)

func uniformValues(seed uint64, n int, lo, hi float64) ([]float64, float64) {
	r := rng.New(seed)
	vals := make([]float64, n)
	var sum float64
	for i := range vals {
		vals[i] = rng.Uniform(r, lo, hi)
		sum += vals[i]
	}
	return vals, sum / float64(n)
}

// build is Build for tests: it fails t on error and returns the concrete
// protocol type behind the Estimator.
func build[T any](t testing.TB, sp Spec) T {
	t.Helper()
	est, err := Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	return est.(T)
}

// meanSpec is the mean task at budget (eps, eps0) under scheme.
func meanSpec(eps, eps0 float64, scheme Scheme, opts ...Option) Spec {
	return NewSpec(MeanTask(), append([]Option{WithBudget(eps, eps0), WithScheme(scheme)}, opts...)...)
}

func TestNewDAPValidation(t *testing.T) {
	// An explicit zero ε₀ selects ε/16 in a Spec, so ε₀ = 0 is checked
	// through validateBudgets itself.
	if _, err := Build(meanSpec(0, 1, SchemeEMF)); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if err := validateBudgets(1, 0); err == nil {
		t.Fatal("eps0=0 accepted")
	}
	if _, err := Build(meanSpec(1, 2, SchemeEMF)); err == nil {
		t.Fatal("eps0 > eps accepted")
	}
	// The group count is bounded: ε/ε₀ = 2¹⁵ lays out MaxGroups groups,
	// anything beyond is a bad spec (group t reports 2^t times).
	if d, err := Build(meanSpec(1, 1.0/(1<<(MaxGroups-1)), SchemeEMF)); err != nil || len(d.Groups()) != MaxGroups {
		t.Fatalf("eps/eps0 = 2^%d: %v", MaxGroups-1, err)
	}
	if _, err := Build(meanSpec(1, 1e-12, SchemeEMF)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("eps0 = 1e-12: err = %v, want ErrBadSpec", err)
	}
}

func TestDAPGroupLayout(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 1.0/16, SchemeEMF))
	if d.H() != 5 {
		t.Fatalf("h = %d, want 5", d.H())
	}
	gs := d.Groups()
	for t2, g := range gs {
		wantEps := 1.0 / math.Pow(2, float64(t2))
		if math.Abs(g.Eps-wantEps) > 1e-12 {
			t.Fatalf("group %d eps = %v, want %v", t2, g.Eps, wantEps)
		}
		if g.Reports != 1<<t2 {
			t.Fatalf("group %d reports = %d, want %d", t2, g.Reports, 1<<t2)
		}
		// Per-user budget is preserved: reports · ε_t = ε.
		if math.Abs(float64(g.Reports)*g.Eps-1) > 1e-12 {
			t.Fatalf("group %d total budget %v, want 1", t2, float64(g.Reports)*g.Eps)
		}
	}
}

func TestDAPCollectShape(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMF))
	vals, _ := uniformValues(1, 9000, -1, 1)
	col, err := d.Collect(rng.New(2), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Groups) != 3 {
		t.Fatalf("groups = %d", len(col.Groups))
	}
	for t2, g := range d.Groups() {
		want := 3000 * g.Reports
		if len(col.Groups[t2]) != want {
			t.Fatalf("group %d holds %d reports, want %d", t2, len(col.Groups[t2]), want)
		}
	}
	if col.ByzCount != 0 {
		t.Fatalf("byz count = %d", col.ByzCount)
	}
}

func TestDAPCollectValidation(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMF))
	if _, err := d.Collect(rng.New(1), []float64{1}, nil, 0); err == nil {
		t.Fatal("too few users accepted")
	}
	vals, _ := uniformValues(1, 100, -1, 1)
	if _, err := d.Collect(rng.New(1), vals, nil, 1.5); err == nil {
		t.Fatal("gamma > 1 accepted")
	}
}

func TestDAPEstimateValidation(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMF))
	ctx := context.Background()
	if _, err := d.Estimate(ctx, nil); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := d.Estimate(ctx, &Collection{Groups: make([][]float64, 2)}); err == nil {
		t.Fatal("wrong group count accepted")
	}
	if _, err := d.Estimate(ctx, &Collection{Groups: make([][]float64, 3)}); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestDAPNoAttackUnbiased(t *testing.T) {
	// The paper's ε₀ = 1/16: Fig. 5(c) shows the EMF false-positive rate
	// stays at 2–4% there, which bounds the clean-case bias.
	d := build[*meanDAP](t, meanSpec(1, 1.0/16, SchemeEMFStar))
	vals, trueMean := uniformValues(3, 20000, -0.6, 0.2)
	est, err := d.Run(rng.New(4), vals, attack.None{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.09 {
		t.Fatalf("clean estimate %v, want ~%v", est.Mean, trueMean)
	}
	if est.Gamma > 0.1 {
		t.Fatalf("clean γ̂ = %v, want small", est.Gamma)
	}
}

func TestDAPDefendsAgainstBBA(t *testing.T) {
	vals, trueMean := uniformValues(5, 15000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	const gamma = 0.25

	for _, scheme := range Schemes() {
		d := build[*meanDAP](t, meanSpec(1, 0.25, scheme))
		est, err := d.Run(rng.New(6), vals, adv, gamma)
		if err != nil {
			t.Fatal(err)
		}
		// Ostrich on the same threat: single-group ε collection.
		reports, err := CollectPM(rng.New(6), vals, 1, adv, gamma, 0)
		if err != nil {
			t.Fatal(err)
		}
		ostrich := stats.Mean(reports)
		if math.Abs(est.Mean-trueMean) >= math.Abs(ostrich-trueMean) {
			t.Fatalf("%v: DAP (%v) should beat Ostrich (%v) vs truth %v",
				scheme, est.Mean, ostrich, trueMean)
		}
		if !est.PoisonedRight {
			t.Fatalf("%v: side probe failed", scheme)
		}
		if scheme != SchemeEMF && math.Abs(est.Gamma-gamma) > 0.12 {
			t.Fatalf("%v: γ̂ = %v, want ~%v", scheme, est.Gamma, gamma)
		}
	}
}

func TestDAPEstimateInternals(t *testing.T) {
	vals, _ := uniformValues(7, 12000, -0.8, 0)
	adv := attack.NewBBA(attack.RangeHighQuarter, attack.DistUniform)
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeCEMFStar))
	est, err := d.Run(rng.New(8), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.GroupMeans) != 3 || len(est.Weights) != 3 || len(est.NHat) != 3 {
		t.Fatal("per-group outputs missing")
	}
	var wSum float64
	for _, w := range est.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wSum)
	}
	if est.VarMin <= 0 {
		t.Fatalf("VarMin = %v", est.VarMin)
	}
	// Larger-ε groups have lower worst-case variance and fewer reports;
	// with equal user counts they must receive more weight.
	if est.Weights[0] <= est.Weights[2] {
		t.Fatalf("weights not decreasing with group index: %v", est.Weights)
	}
	for _, m := range est.GroupMeans {
		if m < -1 || m > 1 {
			t.Fatalf("group mean %v outside [-1,1]", m)
		}
	}
}

func TestDAPDeterministicAtFixedSeed(t *testing.T) {
	vals, _ := uniformValues(9, 6000, -0.5, 0.5)
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := build[*meanDAP](t, meanSpec(1, 0.5, SchemeEMF))
	a, err := d.Run(rng.New(10), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Run(rng.New(10), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean {
		t.Fatal("DAP not deterministic at fixed seed")
	}
}

func TestCollectPM(t *testing.T) {
	vals, _ := uniformValues(11, 5000, -1, 1)
	reports, err := CollectPM(rng.New(12), vals, 1, attack.None{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 5000 {
		t.Fatalf("reports = %d", len(reports))
	}
	if _, err := CollectPM(rng.New(1), vals, -1, nil, 0, 0); err == nil {
		t.Fatal("bad eps accepted")
	}
	// γ outside [0,1) is a domain error, as in every other simulation,
	// directly and through a defense spec's Runner (γ ≥ 1 once spun in
	// SampleSubset drawing more distinct ids than users; γ < 0 panicked).
	def := build[Runner](t, NewSpec(MeanTask(), WithDefense(defense.Spec{Name: "trimming"})))
	for _, g := range []float64{-0.2, 1, 1.5} {
		if _, err := CollectPM(rng.New(1), vals, 1, nil, g, 0); !errors.Is(err, ErrDomain) {
			t.Fatalf("CollectPM gamma %g: err = %v, want ErrDomain", g, err)
		}
		if _, err := def.Run(rng.New(1), vals, nil, g); !errors.Is(err, ErrDomain) {
			t.Fatalf("defense Run gamma %g: err = %v, want ErrDomain", g, err)
		}
	}
}

func TestDAPWeightModeGeneral(t *testing.T) {
	vals, trueMean := uniformValues(13, 9000, -0.5, 0)
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMFStar, WithWeights(WeightsGeneral)))
	est, err := d.Run(rng.New(14), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-trueMean) > 0.3 {
		t.Fatalf("general-weights estimate %v far from %v", est.Mean, trueMean)
	}
}
