package ldp_test

import (
	"math"
	"testing"

	"repro/internal/emf"
	"repro/internal/ldp"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
)

func TestDiscretizerRejectsBadValues(t *testing.T) {
	d := ldp.NewDiscretizer(ldp.Domain{Lo: -2, Hi: 2}, 10)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -2.0001, 2.0001} {
		if _, ok := d.Index(v); ok {
			t.Fatalf("value %v accepted", v)
		}
	}
	// Closed endpoints are in-domain; the upper one lands in the last bucket.
	if i, ok := d.Index(-2); !ok || i != 0 {
		t.Fatalf("Index(-2) = %d, %v", i, ok)
	}
	if i, ok := d.Index(2); !ok || i != 9 {
		t.Fatalf("Index(2) = %d, %v", i, ok)
	}
}

func TestDiscretizerPanicsOnBadShape(t *testing.T) {
	for _, f := range []func(){
		func() { ldp.NewDiscretizer(ldp.Domain{Lo: 0, Hi: 1}, 0) },
		func() { ldp.NewDiscretizer(ldp.Domain{Lo: 1, Hi: 1}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// The streaming collector's load-bearing property: Discretizer produces
// the exact bucket index emf.(*Matrix).Counts would, for every in-domain
// report.
func TestDiscretizerMatchesMatrixCounts(t *testing.T) {
	mech, err := pm.New(0.7)
	if err != nil {
		t.Fatal(err)
	}
	const dprime = 54
	m, err := emf.BuildNumeric(mech, emf.InputBuckets(dprime, mech.C()), dprime)
	if err != nil {
		t.Fatal(err)
	}
	disc := ldp.NewDiscretizer(mech.OutputDomain(), dprime)
	r := rng.New(17)
	dom := mech.OutputDomain()
	for trial := 0; trial < 20000; trial++ {
		v := rng.Uniform(r, dom.Lo, dom.Hi)
		if trial%1000 == 0 {
			v = dom.Lo // exercise the boundary
		}
		if trial%1000 == 1 {
			v = dom.Hi
		}
		i, ok := disc.Index(v)
		if !ok {
			t.Fatalf("in-domain value %v rejected", v)
		}
		c := m.Counts([]float64{v})
		if c[i] != 1 {
			t.Fatalf("value %v: Discretizer bucket %d, Counts bucket elsewhere", v, i)
		}
	}
}
