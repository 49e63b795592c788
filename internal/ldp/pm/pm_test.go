package pm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ldp"
	"repro/internal/rng"
)

func TestNewRejectsBadEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := New(eps); err == nil {
			t.Fatalf("New(%v) should fail", eps)
		}
	}
}

func TestCFormula(t *testing.T) {
	m := MustNew(2)
	e := math.Exp(1.0)
	want := (e + 1) / (e - 1)
	if math.Abs(m.C()-want) > 1e-12 {
		t.Fatalf("C = %v, want %v", m.C(), want)
	}
}

func TestOutputWithinDomain(t *testing.T) {
	r := rng.New(1)
	for _, eps := range []float64{0.0625, 0.5, 1, 2, 5} {
		m := MustNew(eps)
		d := m.OutputDomain()
		for i := 0; i < 2000; i++ {
			v := rng.Uniform(r, -1, 1)
			out := m.Perturb(r, v)
			if d.Clamp(out) != out {
				t.Fatalf("eps=%v: output %v outside [%v,%v]", eps, out, d.Lo, d.Hi)
			}
		}
	}
}

func TestPerturbClampsInput(t *testing.T) {
	r := rng.New(2)
	m := MustNew(1)
	out := m.Perturb(r, 5) // clamped to 1
	if m.OutputDomain().Clamp(out) != out {
		t.Fatalf("clamped input produced out-of-domain output %v", out)
	}
}

func TestUnbiasedness(t *testing.T) {
	r := rng.New(3)
	for _, v := range []float64{-1, -0.4, 0, 0.3, 1} {
		m := MustNew(1)
		const n = 400000
		var sum float64
		for i := 0; i < n; i++ {
			sum += m.Perturb(r, v)
		}
		se := math.Sqrt(m.Var(v) / n)
		if got := sum / n; math.Abs(got-v) > 6*se {
			t.Fatalf("mean of PM(%v) = %v, want %v (±%v)", v, got, v, 6*se)
		}
	}
}

func TestVarMatchesNumericMoments(t *testing.T) {
	for _, eps := range []float64{0.25, 1, 2} {
		m := MustNew(eps)
		for _, v := range []float64{-1, 0, 0.7} {
			mean, variance := ldp.Moments(m, v, 200000)
			if math.Abs(mean-v) > 1e-3 {
				t.Fatalf("eps=%v v=%v: numeric mean %v", eps, v, mean)
			}
			if rel := math.Abs(variance-m.Var(v)) / m.Var(v); rel > 1e-3 {
				t.Fatalf("eps=%v v=%v: numeric var %v, closed form %v", eps, v, variance, m.Var(v))
			}
		}
	}
}

func TestEmpiricalVariance(t *testing.T) {
	r := rng.New(4)
	m := MustNew(1)
	const n = 400000
	v := 0.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := m.Perturb(r, v)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	got := sumSq/n - mean*mean
	want := m.Var(v)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("empirical var %v, want %v", got, want)
	}
}

func TestWorstCaseVar(t *testing.T) {
	m := MustNew(1)
	if m.WorstCaseVar() != m.Var(1) {
		t.Fatal("WorstCaseVar should equal Var(1)")
	}
	if m.WorstCaseVar() <= m.Var(0) {
		t.Fatal("worst case should exceed Var(0)")
	}
}

func TestIntervalProbPartition(t *testing.T) {
	m := MustNew(0.8)
	c := m.C()
	for _, v := range []float64{-1, -0.2, 0.9} {
		var total float64
		const k = 37
		for i := 0; i < k; i++ {
			a := -c + 2*c*float64(i)/k
			b := -c + 2*c*float64(i+1)/k
			total += m.IntervalProb(v, a, b)
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("v=%v: partition sums to %v, want 1", v, total)
		}
	}
}

func TestIntervalProbMatchesEmpirical(t *testing.T) {
	r := rng.New(5)
	m := MustNew(1.5)
	v := 0.3
	a, b := -0.5, 1.2
	want := m.IntervalProb(v, a, b)
	const n = 300000
	hits := 0
	for i := 0; i < n; i++ {
		out := m.Perturb(r, v)
		if out >= a && out <= b {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("empirical interval prob %v, closed form %v", got, want)
	}
}

func TestIntervalProbDegenerate(t *testing.T) {
	m := MustNew(1)
	if got := m.IntervalProb(0, 2*m.C(), 3*m.C()); got != 0 {
		t.Fatalf("outside-domain interval prob = %v, want 0", got)
	}
	if got := m.IntervalProb(0, 0.5, 0.5); got != 0 {
		t.Fatalf("empty interval prob = %v, want 0", got)
	}
	// Swapped bounds are normalized.
	if got, want := m.IntervalProb(0, 0.5, -0.5), m.IntervalProb(0, -0.5, 0.5); got != want {
		t.Fatalf("swapped bounds: %v != %v", got, want)
	}
}

// Property: the ε-LDP guarantee holds — for any two inputs and any output,
// the density ratio is bounded by e^ε.
func TestLDPRatioProperty(t *testing.T) {
	m := MustNew(1.2)
	bound := math.Exp(m.eps) * (1 + 1e-9)
	f := func(v1i, v2i, oi int16) bool {
		v1 := float64(v1i) / float64(math.MaxInt16)
		v2 := float64(v2i) / float64(math.MaxInt16)
		out := float64(oi) / float64(math.MaxInt16) * m.C()
		p1 := m.PDF(v1, out)
		p2 := m.PDF(v2, out)
		if p1 == 0 && p2 == 0 {
			return true
		}
		return p1 <= bound*p2 && p2 <= bound*p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: IntervalProb is additive over adjacent intervals.
func TestIntervalAdditivityProperty(t *testing.T) {
	m := MustNew(0.5)
	c := m.C()
	f := func(vi, ai, bi, mi int16) bool {
		v := float64(vi) / float64(math.MaxInt16)
		a := float64(ai) / float64(math.MaxInt16) * c
		b := float64(bi) / float64(math.MaxInt16) * c
		if a > b {
			a, b = b, a
		}
		mid := a + (b-a)*(float64(mi)-math.MinInt16)/(math.MaxInt16-math.MinInt16)
		whole := m.IntervalProb(v, a, b)
		parts := m.IntervalProb(v, a, mid) + m.IntervalProb(v, mid, b)
		return math.Abs(whole-parts) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBandGeometry(t *testing.T) {
	m := MustNew(1)
	c := m.C()
	for _, v := range []float64{-1, 0, 1} {
		l, r := m.Band(v)
		if math.Abs((r-l)-(c-1)) > 1e-12 {
			t.Fatalf("band width %v, want %v", r-l, c-1)
		}
		if l < -c-1e-12 || r > c+1e-12 {
			t.Fatalf("band [%v,%v] outside domain", l, r)
		}
	}
	// At v=1 the band's right edge touches C; at v=-1 the left edge touches -C.
	_, r1 := m.Band(1)
	l2, _ := m.Band(-1)
	if math.Abs(r1-c) > 1e-12 || math.Abs(l2+c) > 1e-12 {
		t.Fatalf("band edges: r(1)=%v l(-1)=%v, want ±C=%v", r1, l2, c)
	}
}
