package emf

import (
	"math"
	"testing"

	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/ldp/sw"
	"repro/internal/rng"
)

// pmWorkload builds a PM matrix plus a poisoned count vector.
func pmWorkload(t *testing.T, eps float64, n int) (*Matrix, []float64, []int) {
	t.Helper()
	r := rng.New(1)
	mech := pm.MustNew(eps)
	d, dp := BucketCounts(n, mech.C())
	m, err := BuildNumeric(mech, d, dp)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]float64, 0, n)
	for i := 0; i < n*3/4; i++ {
		reports = append(reports, mech.Perturb(r, rng.Uniform(r, -1, 0)))
	}
	c := mech.C()
	for i := 0; i < n/4; i++ {
		reports = append(reports, rng.Uniform(r, c/2, c))
	}
	return m, m.Counts(reports), m.PoisonRight(0)
}

func TestBandDetection(t *testing.T) {
	for _, eps := range []float64{0.0625, 0.25, 1, 2} {
		mech := pm.MustNew(eps)
		d, dp := BucketCounts(20000, mech.C())
		m, err := BuildNumeric(mech, d, dp)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Banded() || !m.band.regular {
			t.Fatalf("PM(ε=%v): want a banded matrix with a regular band", eps)
		}
	}
	msw, err := BuildNumeric(sw.MustNew(1), 20, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !msw.Banded() {
		t.Fatal("SW matrix should be banded")
	}
	mk := BuildCategorical(krr.MustNew(1, 15))
	if !mk.Banded() || !mk.band.regular {
		t.Fatal("k-RR matrix: want a banded matrix with a regular band")
	}
}

// TestBandReconstructsP checks that base + delta reproduces every (snapped)
// dense entry exactly, i.e. the structured representation is lossless.
func TestBandReconstructsP(t *testing.T) {
	m, _, _ := pmWorkload(t, 0.5, 5000)
	b := m.band
	for i := 0; i < m.DPrime; i++ {
		for k := 0; k < m.D; k++ {
			want := m.P[i*m.D+k]
			got := b.base[k]
			if k >= b.lo[i] && k < b.hi[i] {
				switch {
				case k == b.lo[i]:
					got += b.edgeLo[i]
				case k == b.hi[i]-1:
					got += b.edgeHi[i]
				default:
					got += b.delta0
				}
			}
			if got != want {
				t.Fatalf("entry (%d,%d): banded %v != dense %v", i, k, got, want)
			}
		}
	}
}

// TestBandedEStepMatchesDense verifies the tentpole equivalence: one
// banded E-step agrees with the dense reference within 1e-12 on the
// expected masses and the log-likelihood.
func TestBandedEStepMatchesDense(t *testing.T) {
	for _, eps := range []float64{0.0625, 0.5, 2} {
		m, counts, poison := pmWorkload(t, eps, 20000)
		sb, _, err := newState(m, counts, poison, Config{})
		if err != nil {
			t.Fatal(err)
		}
		sd, _, err := newState(m, counts, poison, Config{})
		if err != nil {
			t.Fatal(err)
		}
		llB := sb.eStep(false)
		llD := sd.eStep(true)
		if rel := math.Abs(llB-llD) / math.Abs(llD); rel > 1e-12 {
			t.Fatalf("eps=%v: ll banded %v vs dense %v (rel %v)", eps, llB, llD, rel)
		}
		for k := range sb.px {
			if diff := math.Abs(sb.px[k] - sd.px[k]); diff > 1e-12*(1+math.Abs(sd.px[k])) {
				t.Fatalf("eps=%v: px[%d] banded %v vs dense %v", eps, k, sb.px[k], sd.px[k])
			}
		}
		for i := range sb.py {
			if diff := math.Abs(sb.py[i] - sd.py[i]); diff > 1e-12*(1+math.Abs(sd.py[i])) {
				t.Fatalf("eps=%v: py[%d] banded %v vs dense %v", eps, i, sb.py[i], sd.py[i])
			}
		}
		sb.release()
		sd.release()
	}
}

// TestBandedRunMatchesDense runs full EM both ways: the reconstructed
// histograms must agree to within 1e-9 after hundreds of iterations.
func TestBandedRunMatchesDense(t *testing.T) {
	for _, eps := range []float64{0.0625, 0.5, 2} {
		m, counts, poison := pmWorkload(t, eps, 20000)
		cfg := Config{Tol: PaperTol(eps), MaxIter: 300}
		dense := cfg
		dense.Dense = true
		rb, err := Run(m, counts, poison, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Run(m, counts, poison, dense)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Iters != rd.Iters || rb.Converged != rd.Converged {
			t.Fatalf("eps=%v: iteration trace diverged: %d/%v vs %d/%v",
				eps, rb.Iters, rb.Converged, rd.Iters, rd.Converged)
		}
		for k := range rb.X {
			if math.Abs(rb.X[k]-rd.X[k]) > 1e-9 {
				t.Fatalf("eps=%v: X[%d] banded %v vs dense %v", eps, k, rb.X[k], rd.X[k])
			}
		}
		if math.Abs(rb.Gamma()-rd.Gamma()) > 1e-9 {
			t.Fatalf("eps=%v: γ̂ banded %v vs dense %v", eps, rb.Gamma(), rd.Gamma())
		}
	}
}

func TestFastLogAccuracy(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 100000; i++ {
		x := math.Exp(rng.Uniform(r, -40, 3)) // den magnitudes seen by the E-step
		got := fastLog(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("fastLog(%v) = %v, want %v", x, got, want)
		}
	}
	if got := fastLog(1e-300); math.Abs(got-math.Log(1e-300)) > 1e-10 {
		t.Fatalf("fastLog(1e-300) = %v", got)
	}
}

func TestStatePoolReuseIsClean(t *testing.T) {
	m, counts, poison := pmWorkload(t, 1, 5000)
	cfg := Config{Tol: PaperTol(1), MaxIter: 100}
	first, err := Run(m, counts, poison, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave runs with a different poison set (dirtying pooled states),
	// then repeat the first run: pooling must be invisible.
	if _, err := Run(m, counts, m.PoisonLeft(0), cfg); err != nil {
		t.Fatal(err)
	}
	again, err := Run(m, counts, poison, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Iters != again.Iters || first.LogLik != again.LogLik {
		t.Fatalf("pooled rerun diverged: %v/%v vs %v/%v", first.Iters, first.LogLik, again.Iters, again.LogLik)
	}
	for k := range first.X {
		if first.X[k] != again.X[k] {
			t.Fatalf("pooled rerun X[%d] %v != %v", k, again.X[k], first.X[k])
		}
	}
	for j := range first.Y {
		if first.Y[j] != again.Y[j] {
			t.Fatalf("pooled rerun Y[%d] %v != %v", j, again.Y[j], first.Y[j])
		}
	}
}

func TestMatrixCache(t *testing.T) {
	mech := pm.MustNew(0.75)
	m1, err := BuildNumericCached(mech, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildNumericCached(mech, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same key should return the cached matrix")
	}
	m3, err := BuildNumericCached(mech, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m3 {
		t.Fatal("different d′ must not share a cache entry")
	}
	other, err := BuildNumericCached(pm.MustNew(0.5), 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if other == m1 {
		t.Fatal("different ε must not share a cache entry")
	}
	k1 := BuildCategoricalCached(krr.MustNew(1, 8))
	k2 := BuildCategoricalCached(krr.MustNew(1, 8))
	if k1 != k2 {
		t.Fatal("categorical cache miss for identical mechanisms")
	}
}
