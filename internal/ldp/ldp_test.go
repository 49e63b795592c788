package ldp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// triMech is a minimal PDFer with a triangular output density on [0,1]
// (independent of the input), used to exercise Moments directly.
type triMech struct{}

func (triMech) Name() string         { return "tri" }
func (triMech) Epsilon() float64     { return 1 }
func (triMech) InputDomain() Domain  { return Domain{Lo: 0, Hi: 1} }
func (triMech) OutputDomain() Domain { return Domain{Lo: 0, Hi: 1} }
func (triMech) Perturb(r *rand.Rand, v float64) float64 {
	return 1 - math.Sqrt(1-r.Float64())
}
func (triMech) PDF(_, out float64) float64 {
	if out < 0 || out > 1 {
		return 0
	}
	return 2 * (1 - out)
}

var _ PDFer = triMech{}

func TestDomainBasics(t *testing.T) {
	d := Domain{Lo: -2, Hi: 4}
	if d.Width() != 6 {
		t.Fatalf("Width = %v", d.Width())
	}
	if d.Clamp(9) != 4 || d.Clamp(-9) != -2 || d.Clamp(0) != 0 {
		t.Fatal("Clamp broken")
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap(0, 2, 1, 3); got != 1 {
		t.Fatalf("Overlap = %v", got)
	}
	if got := Overlap(0, 1, 2, 3); got != 0 {
		t.Fatalf("disjoint = %v", got)
	}
	if got := Overlap(0, 4, 1, 2); got != 1 {
		t.Fatalf("contained = %v", got)
	}
	if got := Overlap(1, 1, 0, 2); got != 0 {
		t.Fatalf("degenerate = %v", got)
	}
}

// Property: Overlap is symmetric in its interval arguments.
func TestOverlapSymmetryProperty(t *testing.T) {
	f := func(a1, b1, a2, b2 int8) bool {
		x1, y1 := float64(a1), float64(a1)+math.Abs(float64(b1))
		x2, y2 := float64(a2), float64(a2)+math.Abs(float64(b2))
		return Overlap(x1, y1, x2, y2) == Overlap(x2, y2, x1, y1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the overlap never exceeds either interval's length.
func TestOverlapBoundProperty(t *testing.T) {
	f := func(a1, w1, a2, w2 uint8) bool {
		x1, y1 := float64(a1), float64(a1)+float64(w1)
		x2, y2 := float64(a2), float64(a2)+float64(w2)
		o := Overlap(x1, y1, x2, y2)
		return o >= 0 && o <= float64(w1)+1e-12 && o <= float64(w2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// momentsOf mirrors Moments' quadrature for a bare density function so the
// quadrature itself is validated against a known closed form.
func momentsOf(pdf func(float64) float64, d Domain, steps int) (mean, variance float64) {
	w := d.Width() / float64(steps)
	var m0, m1, m2 float64
	for i := 0; i < steps; i++ {
		x := d.Lo + (float64(i)+0.5)*w
		p := pdf(x) * w
		m0 += p
		m1 += p * x
		m2 += p * x * x
	}
	mean = m1 / m0
	variance = m2/m0 - mean*mean
	return mean, variance
}

func TestMomentsQuadratureUniform(t *testing.T) {
	mean, variance := momentsOf(func(out float64) float64 {
		if out < 0 || out > 1 {
			return 0
		}
		return 1
	}, Domain{Lo: 0, Hi: 1}, 100000)
	if math.Abs(mean-0.5) > 1e-6 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(variance-1.0/12) > 1e-6 {
		t.Fatalf("variance = %v", variance)
	}
}

func TestMomentsOnPDFer(t *testing.T) {
	mean, variance := Moments(triMech{}, 0.5, 50000)
	if math.Abs(mean-1.0/3) > 1e-5 {
		t.Fatalf("mean = %v, want 1/3", mean)
	}
	if math.Abs(variance-1.0/18) > 1e-5 {
		t.Fatalf("variance = %v, want 1/18", variance)
	}
}

func TestMomentsZeroDensity(t *testing.T) {
	// A PDF that is zero everywhere must not divide by zero.
	mean, variance := Moments(zeroMech{}, 0, 100)
	if mean != 0 || variance != 0 {
		t.Fatalf("zero density moments = %v, %v", mean, variance)
	}
}

type zeroMech struct{}

func (zeroMech) Name() string                            { return "zero" }
func (zeroMech) Epsilon() float64                        { return 1 }
func (zeroMech) InputDomain() Domain                     { return Domain{Lo: 0, Hi: 1} }
func (zeroMech) OutputDomain() Domain                    { return Domain{Lo: 0, Hi: 1} }
func (zeroMech) Perturb(_ *rand.Rand, v float64) float64 { return v }
func (zeroMech) PDF(_, _ float64) float64                { return 0 }

func TestMomentsQuadratureTriangular(t *testing.T) {
	// Triangular density on [0,1] with peak at 0: f(x) = 2(1−x);
	// mean = 1/3, variance = 1/18.
	mean, variance := momentsOf(func(out float64) float64 {
		if out < 0 || out > 1 {
			return 0
		}
		return 2 * (1 - out)
	}, Domain{Lo: 0, Hi: 1}, 100000)
	if math.Abs(mean-1.0/3) > 1e-6 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(variance-1.0/18) > 1e-6 {
		t.Fatalf("variance = %v", variance)
	}
}
