package emf

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

// scenario builds a PM collection with n normal reports drawn from values
// uniform on [valLo, valHi] and m poison reports uniform on
// [poiLoFrac·C, poiHiFrac·C].
type scenario struct {
	mech   *pm.Mechanism
	eps    float64
	matrix *Matrix
	counts []float64
	n, m   int
}

func makeScenario(t *testing.T, r *rand.Rand, eps float64, n int, gamma float64, valLo, valHi, poiLoFrac, poiHiFrac float64) *scenario {
	t.Helper()
	mech := pm.MustNew(eps)
	d, dp := BucketCounts(n, mech.C())
	m, err := BuildNumeric(mech, d, dp)
	if err != nil {
		t.Fatal(err)
	}
	nByz := int(gamma * float64(n))
	nNorm := n - nByz
	reports := make([]float64, 0, n)
	for i := 0; i < nNorm; i++ {
		reports = append(reports, mech.Perturb(r, rng.Uniform(r, valLo, valHi)))
	}
	c := mech.C()
	for i := 0; i < nByz; i++ {
		reports = append(reports, rng.Uniform(r, poiLoFrac*c, poiHiFrac*c))
	}
	return &scenario{mech: mech, eps: eps, matrix: m, counts: m.Counts(reports), n: nNorm, m: nByz}
}

func TestRunValidation(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	if _, err := Run(m, make([]float64, 3), nil, Config{}); err == nil {
		t.Fatal("short counts accepted")
	}
	if _, err := Run(m, make([]float64, 10), []int{99}, Config{}); err == nil {
		t.Fatal("bad poison accepted")
	}
	if _, err := RunConstrained(m, make([]float64, 10), nil, -0.1, Config{}); err == nil {
		t.Fatal("negative gamma accepted")
	}
	if _, err := RunConstrained(m, make([]float64, 10), nil, 1.5, Config{}); err == nil {
		t.Fatal("gamma > 1 accepted")
	}
}

func TestEMFEstimatesGamma(t *testing.T) {
	r := rng.New(1)
	// Small ε: Theorem 3 regime where EMF separates poison sharply.
	sc := makeScenario(t, r, 0.125, 40000, 0.25, -1, 0, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Gamma(); math.Abs(got-0.25) > 0.05 {
		t.Fatalf("γ̂ = %v, want ~0.25", got)
	}
}

func TestEMFGammaNearZeroWithoutPoison(t *testing.T) {
	r := rng.New(2)
	sc := makeScenario(t, r, 0.0625, 40000, 0, -1, 1, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5(c): false positives stay small at small ε.
	if got := res.Gamma(); got > 0.08 {
		t.Fatalf("false-positive γ̂ = %v, want < 0.08", got)
	}
}

// Theorem 3: as ε→0 the reconstructed normal histogram tends to uniform
// and ŷ tends to the true poison distribution.
func TestTheorem3Convergence(t *testing.T) {
	r := rng.New(3)
	sc := makeScenario(t, r, 0.0625, 60000, 0.2, -1, 0.5, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// x̂ close to uniform: each component ≈ (1−γ)/d.
	want := (1 - 0.2) / float64(sc.matrix.D)
	for k, x := range res.X {
		if math.Abs(x-want) > 0.35*want {
			t.Fatalf("x̂[%d] = %v, want ~%v (uniform)", k, x, want)
		}
	}
	// ŷ mass concentrates on buckets covering [C/2, C].
	c := sc.mech.C()
	var inRange, total float64
	for _, j := range res.Poison {
		total += res.Y[j]
		if ctr := sc.matrix.OutCenter(j); ctr > 0.45*c {
			inRange += res.Y[j]
		}
	}
	if total == 0 || inRange/total < 0.9 {
		t.Fatalf("poison mass in range: %v of %v", inRange, total)
	}
}

// EM invariant: the log-likelihood is non-decreasing across iterations.
func TestLikelihoodMonotone(t *testing.T) {
	r := rng.New(4)
	sc := makeScenario(t, r, 0.5, 20000, 0.2, -1, 0, 0.5, 1)
	prev := math.Inf(-1)
	for _, iters := range []int{1, 2, 3, 5, 10, 25, 60} {
		res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{MaxIter: iters, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		if res.LogLik < prev-1e-6 {
			t.Fatalf("log-likelihood decreased at %d iters: %v < %v", iters, res.LogLik, prev)
		}
		prev = res.LogLik
	}
}

func TestEMFHistogramsFormDistribution(t *testing.T) {
	r := rng.New(5)
	sc := makeScenario(t, r, 0.5, 20000, 0.3, -1, 0, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Sum(res.X) + stats.Sum(res.Y)
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("Σx̂+Σŷ = %v, want 1", total)
	}
	for _, x := range res.X {
		if x < 0 {
			t.Fatalf("negative x̂: %v", x)
		}
	}
	for _, y := range res.Y {
		if y < 0 {
			t.Fatalf("negative ŷ: %v", y)
		}
	}
}

// Theorem 4 / Algorithm 4: EMF* enforces Σx̂ = 1−γ and Σŷ = γ.
func TestEMFStarConstraints(t *testing.T) {
	r := rng.New(6)
	sc := makeScenario(t, r, 0.5, 20000, 0.25, -1, 0, 0.5, 1)
	gamma := 0.25
	res, err := RunConstrained(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), gamma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Sum(res.X); math.Abs(got-(1-gamma)) > 1e-9 {
		t.Fatalf("Σx̂ = %v, want %v", got, 1-gamma)
	}
	if got := res.Gamma(); math.Abs(got-gamma) > 1e-9 {
		t.Fatalf("Σŷ = %v, want %v", got, gamma)
	}
}

func TestEMFStarZeroGamma(t *testing.T) {
	r := rng.New(7)
	sc := makeScenario(t, r, 0.5, 10000, 0, -1, 1, 0.5, 1)
	res, err := RunConstrained(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Gamma(); got != 0 {
		t.Fatalf("γ=0 run kept poison mass %v", got)
	}
	if got := stats.Sum(res.X); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Σx̂ = %v, want 1", got)
	}
}

func TestEMFStarEmptyPoisonBuckets(t *testing.T) {
	// All counts on the left, poison set on the right: ΣPy = 0 triggers
	// the uniform-spread guard while keeping Σŷ = γ.
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	counts := make([]float64, 10)
	counts[0], counts[1] = 500, 500
	res, err := RunConstrained(m, counts, m.PoisonRight(0), 0.2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Gamma(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("Σŷ = %v, want 0.2", got)
	}
}

// CEMF* (Theorem 5): buckets without poison mass are suppressed and stay
// at zero; surviving buckets carry all of γ.
func TestCEMFSuppression(t *testing.T) {
	r := rng.New(8)
	// Poison concentrated in a narrow band [0.8C, C].
	sc := makeScenario(t, r, 0.25, 40000, 0.25, -1, 0, 0.8, 1)
	poison := sc.matrix.PoisonRight(0)
	base, err := Run(sc.matrix, sc.counts, poison, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gamma := base.Gamma()
	res, err := RunConcentrated(sc.matrix, sc.counts, base, gamma, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Poison) >= len(poison) {
		t.Fatalf("no bucket suppressed: %d vs %d", len(res.Poison), len(poison))
	}
	// Suppressed buckets hold no mass.
	kept := map[int]bool{}
	for _, j := range res.Poison {
		kept[j] = true
	}
	for _, j := range poison {
		if !kept[j] && res.Y[j] != 0 {
			t.Fatalf("suppressed bucket %d holds %v", j, res.Y[j])
		}
	}
	if got := res.Gamma(); math.Abs(got-gamma) > 1e-9 {
		t.Fatalf("Σŷ = %v, want %v", got, gamma)
	}
	// The surviving set should overlap the true poison band.
	c := sc.mech.C()
	found := false
	for _, j := range res.Poison {
		if sc.matrix.OutCenter(j) >= 0.75*c {
			found = true
		}
	}
	if !found {
		t.Fatal("surviving poison set misses the true band")
	}
}

func TestCEMFAllSuppressedFallsBack(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	counts := make([]float64, 10)
	for i := range counts {
		counts[i] = 100
	}
	base := &Result{
		Y:      make([]float64, 10),
		Poison: []int{7, 8, 9},
	}
	// base.Y all zero → everything below threshold → poison-free re-run.
	res, err := RunConcentrated(m, counts, base, 0.3, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma() != 0 || len(res.Poison) != 0 {
		t.Fatalf("expected poison-free fallback, got γ=%v |P|=%d", res.Gamma(), len(res.Poison))
	}
}

func TestCEMFEmptyPoisonDegenerates(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	counts := make([]float64, 10)
	for i := range counts {
		counts[i] = 10
	}
	base := &Result{Y: make([]float64, 10)}
	if _, err := RunConcentrated(m, counts, base, 0.1, 0.5, Config{}); err != nil {
		t.Fatal(err)
	}
}

// CEMF* keeps only the poison buckets at or above factor·γ/|P|.
func TestSuppressedHelper(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 5)
	counts := []float64{100, 100, 100, 100, 100}
	base := &Result{
		Y:      []float64{0, 0, 0, 0.001, 0.2},
		Poison: []int{3, 4},
	}
	// threshold = 0.5·0.3/2 = 0.075 → bucket 3 suppressed.
	res, err := RunConcentrated(m, counts, base, 0.3, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Poison) != 1 || res.Poison[0] != 4 {
		t.Fatalf("kept poison buckets %v, want [4]", res.Poison)
	}
}

func TestPoisonMean(t *testing.T) {
	r := rng.New(9)
	sc := makeScenario(t, r, 0.125, 50000, 0.25, -1, 0, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := sc.mech.C()
	want := 0.75 * c // mean of Uniform[C/2, C]
	if got := PoisonMean(sc.matrix, res); math.Abs(got-want) > 0.12*c {
		t.Fatalf("poison mean %v, want ~%v", got, want)
	}
}

func TestPoisonMeanNoMass(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	res := &Result{Y: make([]float64, 10), Poison: []int{8, 9}}
	if got := PoisonMean(m, res); got != 0 {
		t.Fatalf("PoisonMean of empty = %v", got)
	}
}

func TestConvergedFlag(t *testing.T) {
	r := rng.New(10)
	sc := makeScenario(t, r, 0.5, 10000, 0.2, -1, 0, 0.5, 1)
	// Huge tolerance: converges immediately after the second iteration.
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{Tol: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters != 2 {
		t.Fatalf("expected instant convergence, got iters=%d converged=%v", res.Iters, res.Converged)
	}
	// Impossible tolerance with tiny iteration cap: must not converge.
	res2, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{Tol: 1e-300, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Converged {
		t.Fatal("should not converge at Tol=1e-300 within 3 iterations")
	}
}

func TestPaperTol(t *testing.T) {
	if got := PaperTol(0); got != 0.01 {
		t.Fatalf("PaperTol(0) = %v", got)
	}
	if PaperTol(2) <= PaperTol(1) {
		t.Fatal("PaperTol should grow with ε")
	}
}

func TestSmoothingPreservesMass(t *testing.T) {
	r := rng.New(11)
	sc := makeScenario(t, r, 0.5, 20000, 0.2, -1, 0, 0.5, 1)
	res, err := Run(sc.matrix, sc.counts, sc.matrix.PoisonRight(0), Config{Smooth: true})
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Sum(res.X) + stats.Sum(res.Y)
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("smoothed mass = %v", total)
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1 := rng.New(12)
	sc1 := makeScenario(t, r1, 0.5, 10000, 0.2, -1, 0, 0.5, 1)
	r2 := rng.New(12)
	sc2 := makeScenario(t, r2, 0.5, 10000, 0.2, -1, 0, 0.5, 1)
	a, _ := Run(sc1.matrix, sc1.counts, sc1.matrix.PoisonRight(0), Config{})
	b, _ := Run(sc2.matrix, sc2.counts, sc2.matrix.PoisonRight(0), Config{})
	for k := range a.X {
		if a.X[k] != b.X[k] {
			t.Fatal("EMF is not deterministic")
		}
	}
}
