package sw

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewRejectsBadEpsilon(t *testing.T) {
	for _, eps := range []float64{0, -2, math.Inf(1), math.NaN()} {
		if _, err := New(eps); err == nil {
			t.Fatalf("New(%v) should fail", eps)
		}
	}
}

func TestBFormula(t *testing.T) {
	m := MustNew(1)
	e := math.E
	want := (e - e + 1) / (2 * e * (e - 2)) // ε=1: (1·e − e + 1) / (2e(e−1−1))
	if math.Abs(m.b-want) > 1e-12 {
		t.Fatalf("b = %v, want %v", m.b, want)
	}
}

func TestDensityNormalization(t *testing.T) {
	for _, eps := range []float64{0.0625, 0.5, 1, 2} {
		m := MustNew(eps)
		// 2b·p + 1·q must equal 1.
		total := 2*m.b*m.p + m.q
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("eps=%v: density integral %v, want 1", eps, total)
		}
		if math.Abs(m.p/m.q-math.Exp(eps)) > 1e-9 {
			t.Fatalf("eps=%v: p/q = %v, want e^ε", eps, m.p/m.q)
		}
	}
}

func TestOutputWithinDomain(t *testing.T) {
	r := rng.New(1)
	for _, eps := range []float64{0.25, 1, 3} {
		m := MustNew(eps)
		d := m.OutputDomain()
		for i := 0; i < 3000; i++ {
			out := m.Perturb(r, rng.Uniform(r, 0, 1))
			if d.Clamp(out) != out {
				t.Fatalf("eps=%v: output %v outside [%v,%v]", eps, out, d.Lo, d.Hi)
			}
		}
	}
}

func TestIntervalProbPartition(t *testing.T) {
	m := MustNew(0.75)
	lo, hi := -m.b, 1+m.b
	for _, v := range []float64{0, 0.33, 1} {
		var total float64
		const k = 41
		for i := 0; i < k; i++ {
			a := lo + (hi-lo)*float64(i)/k
			b := lo + (hi-lo)*float64(i+1)/k
			total += m.IntervalProb(v, a, b)
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("v=%v: partition sums to %v", v, total)
		}
	}
}

func TestIntervalProbMatchesEmpirical(t *testing.T) {
	r := rng.New(2)
	m := MustNew(1)
	v := 0.6
	a, b := 0.3, 0.9
	want := m.IntervalProb(v, a, b)
	const n = 300000
	hits := 0
	for i := 0; i < n; i++ {
		out := m.Perturb(r, v)
		if out >= a && out <= b {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-want) > 0.005 {
		t.Fatalf("empirical %v, closed form %v", got, want)
	}
}

func TestNearBandConcentration(t *testing.T) {
	r := rng.New(3)
	m := MustNew(2)
	v := 0.5
	const n = 100000
	near := 0
	for i := 0; i < n; i++ {
		out := m.Perturb(r, v)
		if out >= v-m.b && out <= v+m.b {
			near++
		}
	}
	want := 2 * m.b * m.p
	if got := float64(near) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("near-band mass %v, want %v", got, want)
	}
}

func TestLDPRatioProperty(t *testing.T) {
	m := MustNew(0.9)
	bound := math.Exp(m.eps) * (1 + 1e-9)
	f := func(v1i, v2i, oi uint16) bool {
		v1 := float64(v1i) / math.MaxUint16
		v2 := float64(v2i) / math.MaxUint16
		out := -m.b + (1+2*m.b)*float64(oi)/math.MaxUint16
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

func TestWorstCaseVarPositive(t *testing.T) {
	m := MustNew(1)
	if v := m.WorstCaseVar(); v <= 0 || v > 1 {
		t.Fatalf("WorstCaseVar = %v, expected in (0,1]", v)
	}
}
