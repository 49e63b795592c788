package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Sum(xs); got != 10 {
		t.Fatalf("Sum = %v, want 10", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance of nil = %v, want 0", got)
	}
}

func TestMSE(t *testing.T) {
	if got := MSEVec([]float64{1, 3}, []float64{2, 2}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("MSE = %v, want 1", got)
	}
	if got := MSEVec(nil, nil); got != 0 {
		t.Fatalf("MSE(nil) = %v, want 0", got)
	}
}

func TestMSEVec(t *testing.T) {
	if got := MSEVec([]float64{1, 2}, []float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Fatalf("MSEVec = %v, want 2", got)
	}
}

func TestMSEVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSEVec([]float64{1}, []float64{1, 2})
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q25 = %v", got)
	}
	if got := Quantile(xs, 0.125); !almostEq(got, 1.5, 1e-12) {
		t.Fatalf("q12.5 = %v, want 1.5", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("Quantile(nil) = %v", got)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Fatalf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Fatalf("Clamp low = %v", got)
	}
	if got := Clamp(1, 0, 3); got != 1 {
		t.Fatalf("Clamp mid = %v", got)
	}
}

func TestHistogramBasic(t *testing.T) {
	// Boundary values fall into the upper bucket: -0.5 → bucket 1, 0.5 → bucket 3.
	h := Histogram([]float64{-1, -0.5, 0, 0.5, 0.999}, -1, 1, 4)
	want := []float64{1, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if Sum(h.Counts) != 5 {
		t.Fatalf("total = %v", Sum(h.Counts))
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := Histogram([]float64{-10, 10}, -1, 1, 4)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("out-of-range not clamped: %v", h.Counts)
	}
}

func TestNewHistPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHist(0, 1, 0) },
		func() { NewHist(1, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if !almostEq(got[0], 0.25, 1e-12) || !almostEq(got[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", got)
	}
	uni := Normalize([]float64{0, 0, 0, 0})
	for _, u := range uni {
		if !almostEq(u, 0.25, 1e-12) {
			t.Fatalf("zero vector should normalize uniform, got %v", uni)
		}
	}
}

func TestHistMean(t *testing.T) {
	w := []float64{1, 0, 1}
	c := []float64{0, 1, 2}
	if got := HistMean(w, c); !almostEq(got, 1, 1e-12) {
		t.Fatalf("HistMean = %v", got)
	}
	if got := HistMean([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatalf("HistMean zero weights = %v", got)
	}
}

func TestWasserstein1Basic(t *testing.T) {
	p := []float64{1, 0, 0}
	q := []float64{0, 0, 1}
	// Mass 1 moved 2 buckets of width 0.5 => distance 1.0
	if got := Wasserstein1(p, q, 0.5); !almostEq(got, 1, 1e-12) {
		t.Fatalf("W1 = %v, want 1", got)
	}
	if got := Wasserstein1(p, p, 0.5); got != 0 {
		t.Fatalf("W1 self = %v, want 0", got)
	}
}

// Property: W1 is symmetric and non-negative.
func TestWassersteinSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		p := []float64{float64(a) + 1, float64(b), float64(c)}
		q := []float64{float64(d), float64(a), float64(b) + 1}
		x := Wasserstein1(p, q, 0.1)
		y := Wasserstein1(q, p, 0.1)
		return x >= 0 && almostEq(x, y, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant.
func TestVarianceTranslationProperty(t *testing.T) {
	f := func(a, b, c int8, shift int8) bool {
		xs := []float64{float64(a), float64(b), float64(c)}
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] + float64(shift)
		}
		return almostEq(Variance(xs), Variance(ys), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram total equals input length.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		h := Histogram(vals, -1, 1, 8)
		return Sum(h.Counts) == float64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
