package emf

import (
	"math"
	"testing"

	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
)

// finalLogLik evaluates l(F) exactly at a result's parameters (the
// Result.LogLik field is the likelihood of the pre-M-step iterate, one
// map application behind the returned parameters).
func finalLogLik(t *testing.T, m *Matrix, counts []float64, res *Result) float64 {
	t.Helper()
	s, _, err := newState(m, counts, res.Poison, Config{Init: res})
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	ll := s.eStep(false)
	return ll
}

// squaremCases builds the equivalence matrix: PM at several budgets with
// right-half poison, both plain-EMF and constrained modes.
func squaremCases(t *testing.T) []*scenario {
	t.Helper()
	var cases []*scenario
	for i, eps := range []float64{0.125, 0.5, 2} {
		r := rng.New(uint64(41 + i))
		cases = append(cases, makeScenario(t, r, eps, 30000, 0.25, -1, 0, 0.5, 1))
	}
	return cases
}

// The tentpole equivalence: the accelerated solver reaches the same fixed
// point as the plain loop within Tol-scaled bounds, in no more (and
// usually far fewer) iterations, without ever finishing at a lower
// log-likelihood.
func TestSQUAREMMatchesPlainFixedPoint(t *testing.T) {
	for _, sc := range squaremCases(t) {
		tol := PaperTol(sc.eps)
		cfg := Config{Tol: tol, MaxIter: 2000}
		poison := sc.matrix.PoisonRight(0)
		for name, run := range map[string]func(Config) (*Result, error){
			"emf": func(c Config) (*Result, error) { return Run(sc.matrix, sc.counts, poison, c) },
			"emf*": func(c Config) (*Result, error) {
				return RunConstrained(sc.matrix, sc.counts, poison, 0.25, c)
			},
		} {
			plain, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			accCfg := cfg
			accCfg.Accelerate = true
			acc, err := run(accCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Converged || !acc.Converged {
				t.Fatalf("%s eps=%v: plain conv=%v acc conv=%v", name, sc.eps, plain.Converged, acc.Converged)
			}
			if acc.Iters > plain.Iters {
				t.Errorf("%s eps=%v: accelerated used %d iters, plain %d", name, sc.eps, acc.Iters, plain.Iters)
			}
			llP := finalLogLik(t, sc.matrix, sc.counts, plain)
			llA := finalLogLik(t, sc.matrix, sc.counts, acc)
			if llA < llP-(tol+2e-5*math.Abs(llP)) {
				t.Errorf("%s eps=%v: accelerated log-lik %v below plain %v − tol", name, sc.eps, llA, llP)
			}
			// Both stopped when one more map application moved l(F) by < Tol;
			// the iterates then agree within a Tol-scaled neighbourhood of the
			// shared fixed point. γ̂ aggregates ŷ, the quantity the protocol
			// consumes; the per-bucket bound is looser because at small ε the
			// basin is flat (ill-conditioned deconvolution) and the Tol rule
			// legitimately stops at different points of it.
			if diff := math.Abs(acc.Gamma() - plain.Gamma()); diff > 0.02 {
				t.Errorf("%s eps=%v: γ̂ accelerated %v vs plain %v", name, sc.eps, acc.Gamma(), plain.Gamma())
			}
			for k := range plain.X {
				if diff := math.Abs(acc.X[k] - plain.X[k]); diff > 0.06 {
					t.Fatalf("%s eps=%v: x̂[%d] accelerated %v vs plain %v", name, sc.eps, k, acc.X[k], plain.X[k])
				}
			}
		}
	}
}

// The adaptive steplength bound exists to stop paying for rejected jumps:
// over the five groups of the paper's default cell (ε = 1, ε₀ = 1/16,
// 40 000 users a group, γ = 0.25 on [C/2, C]) fewer than a quarter of the
// extrapolations may be rejected — with the bound fixed at maxAlpha more
// than nine in ten were — and every fit converges inside MaxIter.
func TestSQUAREMRejectsFewJumps(t *testing.T) {
	var cycles, rejected int
	for g, eps := range []float64{1, 0.5, 0.25, 0.125, 0.0625} {
		sc := makeScenario(t, rng.New(uint64(90+g)), eps, 40000<<g, 0.25, -0.6, 0.2, 0.5, 1)
		poison := sc.matrix.PoisonRight(0)
		cfg := Config{Tol: PaperTol(eps), Accelerate: true}
		for name, run := range map[string]func() (*Result, error){
			"emf":  func() (*Result, error) { return Run(sc.matrix, sc.counts, poison, cfg) },
			"emf*": func() (*Result, error) { return RunConstrained(sc.matrix, sc.counts, poison, 0.25, cfg) },
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Errorf("%s eps=%v: no convergence in %d E-steps", name, eps, res.Iters)
			}
			cycles += res.Iters / 3
			rejected += res.Restarts
		}
	}
	if share := float64(rejected) / float64(cycles); share >= 0.25 {
		t.Fatalf("%d of %d extrapolations rejected (%.0f%%), want under 25%%", rejected, cycles, 100*share)
	} else {
		t.Logf("%d of %d extrapolations rejected (%.0f%%)", rejected, cycles, 100*share)
	}
}

// SQUAREM must also compose with EMS smoothing (the SW pipeline): the
// smoothed map's fixed point is reached with no worse log-likelihood.
func TestSQUAREMWithSmoothing(t *testing.T) {
	r := rng.New(7)
	mech := sw.MustNew(0.5)
	const n = 20000
	reports := make([]float64, n)
	for i := range reports {
		reports[i] = mech.Perturb(r, rng.Beta(r, 2, 5))
	}
	d, dp := BucketCounts(n, mech.OutputDomain().Width())
	m, err := BuildNumeric(mech, d, dp)
	if err != nil {
		t.Fatal(err)
	}
	counts := m.Counts(reports)
	cfg := Config{Smooth: true, MaxIter: 2000}
	plain, err := RunConstrained(m, counts, nil, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accCfg := cfg
	accCfg.Accelerate = true
	acc, err := RunConstrained(m, counts, nil, 0, accCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Converged {
		t.Fatal("accelerated smoothed run did not converge")
	}
	for k := range plain.X {
		if diff := math.Abs(acc.X[k] - plain.X[k]); diff > 0.02 {
			t.Fatalf("x̂[%d]: accelerated %v vs plain %v", k, acc.X[k], plain.X[k])
		}
	}
}

// The quality gate of the ISSUE: across mechanisms and budgets the
// accelerated solver never degrades the final log-likelihood against the
// plain fixed point (beyond the Tol the termination rule itself allows).
func TestSQUAREMNeverDegradesLogLik(t *testing.T) {
	check := func(name string, m *Matrix, counts []float64, poison []int, gamma float64, cfg Config) {
		t.Helper()
		var plain, acc *Result
		var err error
		if gamma >= 0 {
			plain, err = RunConstrained(m, counts, poison, gamma, cfg)
		} else {
			plain, err = Run(m, counts, poison, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg.Accelerate = true
		if gamma >= 0 {
			acc, err = RunConstrained(m, counts, poison, gamma, cfg)
		} else {
			acc, err = Run(m, counts, poison, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		llP := finalLogLik(t, m, counts, plain)
		llA := finalLogLik(t, m, counts, acc)
		// The Tol rule stops wherever one map application moves l(F) by less
		// than Tol, which in a flat basin is location-dependent: allow the
		// stopping points to differ by Tol plus a per-report-negligible
		// relative slack (2e-5 nats per unit of |l|).
		margin := cfg.tol() + 2e-5*math.Abs(llP)
		if llA < llP-margin {
			t.Errorf("%s: accelerated final log-lik %v below plain %v − %v", name, llA, llP, margin)
		}
	}

	// PM, plain EMF and EMF*.
	for i, eps := range []float64{0.0625, 0.25, 1, 2} {
		r := rng.New(uint64(61 + i))
		sc := makeScenario(t, r, eps, 20000, 0.25, -0.8, 0.2, 0.5, 1)
		poison := sc.matrix.PoisonRight(0)
		cfg := Config{Tol: PaperTol(eps), MaxIter: 2000}
		check("pm-emf", sc.matrix, sc.counts, poison, -1, cfg)
		check("pm-emf*", sc.matrix, sc.counts, poison, 0.25, cfg)
	}
	// k-RR categorical deconvolution.
	r := rng.New(77)
	kmech := krr.MustNew(1, 8)
	km := BuildCategorical(kmech)
	kcounts := make([]float64, 8)
	for i := 0; i < 40000; i++ {
		kcounts[kmech.PerturbCat(r, r.IntN(8)%5)]++
	}
	check("krr", km, kcounts, []int{7}, 0.1, Config{Tol: PaperTol(1), MaxIter: 2000})
}

// Warm starts: seeding a run from its own fixed point converges almost
// immediately to the same fit; a mismatched Init is ignored.
func TestWarmStartConvergence(t *testing.T) {
	r := rng.New(5)
	sc := makeScenario(t, r, 0.5, 30000, 0.25, -1, 0, 0.5, 1)
	poison := sc.matrix.PoisonRight(0)
	cfg := Config{Tol: PaperTol(0.5), MaxIter: 2000, Accelerate: true}
	cold, err := Run(sc.matrix, sc.counts, poison, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wCfg := cfg
	wCfg.Init = cold
	warm, err := Run(sc.matrix, sc.counts, poison, wCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("warm start not applied")
	}
	if warm.Iters >= cold.Iters {
		t.Fatalf("warm start did not shorten the run: %d vs %d iters", warm.Iters, cold.Iters)
	}
	for k := range cold.X {
		if diff := math.Abs(warm.X[k] - cold.X[k]); diff > 0.01 {
			t.Fatalf("x̂[%d]: warm %v vs cold %v", k, warm.X[k], cold.X[k])
		}
	}
	if diff := math.Abs(warm.Gamma() - cold.Gamma()); diff > 0.01 {
		t.Fatalf("γ̂: warm %v vs cold %v", warm.Gamma(), cold.Gamma())
	}

	// Mismatched layout: the warm start must be ignored, not crash.
	bad := &Result{X: []float64{1}, Y: []float64{1}}
	mCfg := cfg
	mCfg.Init = bad
	res, err := Run(sc.matrix, sc.counts, poison, mCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Fatal("mismatched Init reported as warm start")
	}
	if diff := math.Abs(res.Gamma() - cold.Gamma()); diff > 1e-12 {
		t.Fatal("mismatched Init changed the cold trajectory")
	}
}

// Warm starts must be able to move support the seeding fit had zeroed:
// the floor in warmStart keeps every bucket alive.
func TestWarmStartResurrectsZeroedMass(t *testing.T) {
	r := rng.New(6)
	sc := makeScenario(t, r, 1, 20000, 0.2, -1, 1, 0.5, 1)
	poison := sc.matrix.PoisonRight(0)
	// Both runs use the same tight Tol so they land on the same fixed point
	// rather than on loose Tol-rule stopping points.
	cfg := Config{Tol: 1e-8, MaxIter: 5000, Accelerate: true}
	cold, err := Run(sc.matrix, sc.counts, poison, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out half the input support in the seed.
	seed := &Result{
		X:      append([]float64(nil), cold.X...),
		Y:      append([]float64(nil), cold.Y...),
		Poison: cold.Poison,
	}
	for k := 0; k < len(seed.X)/2; k++ {
		seed.X[k] = 0
	}
	wCfg := cfg
	wCfg.Init = seed
	warm, err := Run(sc.matrix, sc.counts, poison, wCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The guarantee the floor provides is that no bucket stays pinned at
	// the floor: every zeroed bucket the data supports must regrow by
	// orders of magnitude. (Exact agreement with the cold fit is not
	// promised — the deconvolution has flat directions and EM is a local
	// optimizer, so a half-zeroed seed may settle elsewhere in the basin.)
	floor := 1e-3 / float64(sc.matrix.D+len(poison))
	for k := 0; k < len(seed.X)/2; k++ {
		if cold.X[k] > 0.01 && warm.X[k] < 50*floor {
			t.Fatalf("x̂[%d] stayed pinned at the floor: warm %v (floor %v), cold %v", k, warm.X[k], floor, cold.X[k])
		}
	}
	if diff := math.Abs(warm.Gamma() - cold.Gamma()); diff > 0.05 {
		t.Fatalf("γ̂ diverged after reseeding: warm %v vs cold %v", warm.Gamma(), cold.Gamma())
	}
}

// The per-iteration path of the solver must stay allocation-free for
// each E-step kind (dense, ragged banded, regular banded) and in both
// modes: a run at 8× the iteration budget may not allocate more than a
// short run (the Result copies and closures are per-run constants).
func TestRunIterationsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard applies to production builds")
	}
	r := rng.New(9)
	pmSc := makeScenario(t, r, 0.25, 20000, 0.25, -1, 0, 0.5, 1)
	pmPoison := pmSc.matrix.PoisonRight(0)
	swMech := sw.MustNew(1)
	swM, err := BuildNumeric(swMech, 64, 64) // bucket edges off the window grid: a ragged band
	if err != nil {
		t.Fatal(err)
	}
	swReports := make([]float64, 5000)
	for i := range swReports {
		swReports[i] = swMech.Perturb(r, rng.Uniform(r, 0, 0.5))
	}
	for _, tc := range []struct {
		name    string
		m       *Matrix
		counts  []float64
		poison  []int
		dense   bool
		regular bool
	}{
		{"dense", pmSc.matrix, pmSc.counts, pmPoison, true, false},
		{"banded", swM, swM.Counts(swReports), swM.PoisonRight(0.5), false, false},
		{"banded-regular", pmSc.matrix, pmSc.counts, pmPoison, false, true},
	} {
		if !tc.dense && (!tc.m.Banded() || tc.m.band.regular != tc.regular) {
			t.Fatalf("%s: matrix does not take this E-step (banded=%v)", tc.name, tc.m.Banded())
		}
		for _, accel := range []bool{false, true} {
			cfg := Config{Tol: 1e-12, Accelerate: accel, Dense: tc.dense}
			run := func(maxIter int) float64 {
				cfg.MaxIter = maxIter
				return testing.AllocsPerRun(20, func() {
					if _, err := Run(tc.m, tc.counts, tc.poison, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			run(4) // warm the state pool
			short, long := run(8), run(64)
			if long > short+1 {
				t.Errorf("%s accel=%v: iterations allocate: %v allocs at 8 iters vs %v at 64", tc.name, accel, short, long)
			}
		}
	}
}

func BenchmarkRun(b *testing.B) {
	mech, counts, poison := benchWorkload(b)
	cfg := Config{Tol: PaperTol(0.25), MaxIter: 500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(mech, counts, poison, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAccelerated(b *testing.B) {
	mech, counts, poison := benchWorkload(b)
	cfg := Config{Tol: PaperTol(0.25), MaxIter: 500, Accelerate: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(mech, counts, poison, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkload builds the PM deconvolution the Run benchmarks solve
// (kept modest so -benchtime 1x smoke runs stay fast).
func benchWorkload(b *testing.B) (*Matrix, []float64, []int) {
	b.Helper()
	r := rng.New(3)
	mech := pm.MustNew(0.25)
	const n = 20000
	reports := make([]float64, 0, n)
	for i := 0; i < n*3/4; i++ {
		reports = append(reports, mech.Perturb(r, rng.Uniform(r, -1, 0)))
	}
	c := mech.C()
	for i := n * 3 / 4; i < n; i++ {
		reports = append(reports, rng.Uniform(r, 0.5*c, c))
	}
	d, dp := BucketCounts(n, mech.C())
	m, err := BuildNumeric(mech, d, dp)
	if err != nil {
		b.Fatal(err)
	}
	return m, m.Counts(reports), m.PoisonRight(0)
}
