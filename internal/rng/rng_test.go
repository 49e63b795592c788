package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("generators with equal seeds diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("generators with different seeds agreed on %d/100 draws", same)
	}
}

func TestSplitStreamsIndependent(t *testing.T) {
	a, b := Split(7, 0), Split(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams agreed on %d/100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, b := Split(9, 3), Split(9, 3)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		x := Uniform(r, -3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += Uniform(r, 0, 10)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Fatalf("Uniform(0,10) mean = %v, want ~5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Normal(r, 2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("Normal variance = %v, want ~9", variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(4)
	for i := 0; i < 5000; i++ {
		x := TruncNormal(r, 0, 5, -1, 1)
		if x < -1 || x > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", x)
		}
	}
}

func TestTruncNormalSwappedBounds(t *testing.T) {
	r := New(5)
	x := TruncNormal(r, 0, 1, 2, -2)
	if x < -2 || x > 2 {
		t.Fatalf("TruncNormal with swapped bounds out of range: %v", x)
	}
}

func TestTruncNormalDegenerateInterval(t *testing.T) {
	r := New(6)
	// Interval far in the tail: rejection will exhaust and clamp.
	x := TruncNormal(r, 0, 0.001, 10, 11)
	if x < 10 || x > 11 {
		t.Fatalf("degenerate TruncNormal out of range: %v", x)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(7)
	for _, k := range []float64{0.5, 1, 2.5, 9} {
		const n = 300000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := Gamma(r, k)
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-k) > 0.05*math.Max(1, k) {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", k, mean, k)
		}
		if math.Abs(variance-k) > 0.12*math.Max(1, k) {
			t.Fatalf("Gamma(%v) variance = %v, want ~%v", k, variance, k)
		}
	}
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) should panic")
		}
	}()
	Gamma(New(1), 0)
}

func TestBetaMoments(t *testing.T) {
	r := New(8)
	cases := []struct{ a, b float64 }{{2, 5}, {5, 2}, {1, 6}, {6, 1}}
	for _, c := range cases {
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			x := Beta(r, c.a, c.b)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%v,%v) out of [0,1]: %v", c.a, c.b, x)
			}
			sum += x
		}
		want := c.a / (c.a + c.b)
		if mean := sum / n; math.Abs(mean-want) > 0.01 {
			t.Fatalf("Beta(%v,%v) mean = %v, want ~%v", c.a, c.b, mean, want)
		}
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := New(10)
	got := SampleWithoutReplacement(r, 50, 20)
	if len(got) != 20 {
		t.Fatalf("len = %d, want 20", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 50 {
			t.Fatalf("index out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := New(11)
	got := SampleWithoutReplacement(r, 5, 5)
	seen := make(map[int]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("full sample should be a permutation, got %v", got)
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	SampleWithoutReplacement(New(1), 3, 4)
}

// Property: Beta samples always lie in [0,1] for random valid shapes.
func TestBetaRangeProperty(t *testing.T) {
	r := New(12)
	f := func(ai, bi uint8) bool {
		a := 0.1 + float64(ai%60)/10
		b := 0.1 + float64(bi%60)/10
		x := Beta(r, a, b)
		return x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gamma samples are non-negative for random valid shapes.
func TestGammaNonNegativeProperty(t *testing.T) {
	r := New(13)
	f := func(ki uint8) bool {
		k := 0.05 + float64(ki%80)/8
		return Gamma(r, k) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
