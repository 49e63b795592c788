package emf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/ldp/sw"
)

func TestBuildNumericColumnsSumToOne(t *testing.T) {
	for _, eps := range []float64{0.125, 0.5, 2} {
		m, err := BuildNumeric(pm.MustNew(eps), 12, 40)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < m.D; k++ {
			var total float64
			for i := 0; i < m.DPrime; i++ {
				total += m.P[i*m.D+k]
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("eps=%v col %d sums to %v", eps, k, total)
			}
		}
	}
}

func TestBuildNumericSWColumnsSumToOne(t *testing.T) {
	m, err := BuildNumeric(sw.MustNew(1), 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < m.D; k++ {
		var total float64
		for i := 0; i < m.DPrime; i++ {
			total += m.P[i*m.D+k]
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("col %d sums to %v", k, total)
		}
	}
}

func TestBuildNumericValidation(t *testing.T) {
	if _, err := BuildNumeric(pm.MustNew(1), 0, 10); err == nil {
		t.Fatal("d=0 should fail")
	}
	if _, err := BuildNumeric(pm.MustNew(1), 10, 0); err == nil {
		t.Fatal("dprime=0 should fail")
	}
}

func TestMatrixGeometry(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	c := pm.MustNew(1).C()
	if math.Abs(m.OutLo+c) > 1e-12 || math.Abs(m.OutHi-c) > 1e-12 {
		t.Fatalf("output domain [%v,%v], want ±C", m.OutLo, m.OutHi)
	}
	if math.Abs(m.InWidth()-0.5) > 1e-12 {
		t.Fatalf("InWidth = %v", m.InWidth())
	}
	if math.Abs(m.InCenter(0)-(-0.75)) > 1e-12 {
		t.Fatalf("InCenter(0) = %v", m.InCenter(0))
	}
	if math.Abs(m.OutCenter(0)-(-c+c/10)) > 1e-9 {
		t.Fatalf("OutCenter(0) = %v", m.OutCenter(0))
	}
}

func TestOutBucketClamps(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	counts := m.Counts([]float64{-1e9, 1e9})
	if counts[0] != 1 || counts[9] != 1 {
		t.Fatalf("clamped counts = %v, want one report in each boundary bucket", counts)
	}
}

func TestCountsTotal(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	counts := m.Counts([]float64{-1, 0, 1, 2, -2})
	var total float64
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("counts total %v", total)
	}
}

func TestPoisonSidesPartition(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	left := m.PoisonLeft(0)
	right := m.PoisonRight(0)
	if len(left) != 5 || len(right) != 5 {
		t.Fatalf("halves: %d/%d, want 5/5", len(left), len(right))
	}
	seen := map[int]bool{}
	for _, j := range append(append([]int{}, left...), right...) {
		if seen[j] {
			t.Fatalf("bucket %d in both sides", j)
		}
		seen[j] = true
	}
	if len(seen) != 10 {
		t.Fatalf("partition covers %d buckets", len(seen))
	}
}

func TestPoisonRightShifted(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	// Shifting O′ to the right shrinks the right poison set (footnote 5).
	all := m.PoisonRight(m.OutLo)
	some := m.PoisonRight(m.OutHi / 2)
	if len(some) >= len(all) {
		t.Fatalf("shifted set %d not smaller than %d", len(some), len(all))
	}
}

func TestBuildCategorical(t *testing.T) {
	mech := krr.MustNew(1, 6)
	m := BuildCategorical(mech)
	if m.D != 6 || m.DPrime != 6 {
		t.Fatalf("dims %dx%d", m.DPrime, m.D)
	}
	for from := 0; from < 6; from++ {
		var total float64
		for to := 0; to < 6; to++ {
			total += m.P[to*m.D+from]
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("col %d sums to %v", from, total)
		}
	}
	if e := math.Exp(1); m.P[2*m.D+2] != e/(e+5) {
		t.Fatal("diagonal should be keep probability")
	}
}

func TestBucketCounts(t *testing.T) {
	d, dp := BucketCounts(1000000, 2.16)
	if dp != 1000 {
		t.Fatalf("dprime = %d, want 1000", dp)
	}
	c := 2.16
	if want := int(1000 / c); d != want {
		t.Fatalf("d = %d", d)
	}
	// Odd sqrt rounds down to even.
	_, dp2 := BucketCounts(10201, 2) // sqrt = 101
	if dp2%2 != 0 {
		t.Fatalf("dprime %d not even", dp2)
	}
	// Tiny n clamps to the minimum.
	d3, dp3 := BucketCounts(4, 1000)
	if dp3 < 8 || d3 < 1 {
		t.Fatalf("clamping failed: d=%d dprime=%d", d3, dp3)
	}
}

// Property: every matrix entry is a probability.
func TestMatrixEntriesAreProbabilities(t *testing.T) {
	f := func(epsRaw uint8) bool {
		eps := 0.05 + float64(epsRaw%40)/10
		m, err := BuildNumeric(pm.MustNew(eps), 6, 20)
		if err != nil {
			return false
		}
		for _, p := range m.P {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidatePoison(t *testing.T) {
	m, _ := BuildNumeric(pm.MustNew(1), 4, 10)
	if err := m.validatePoison([]int{0, 9}); err != nil {
		t.Fatalf("valid poison rejected: %v", err)
	}
	if err := m.validatePoison([]int{10}); err == nil {
		t.Fatal("out-of-range poison accepted")
	}
	if err := m.validatePoison([]int{3, 3}); err == nil {
		t.Fatal("duplicate poison accepted")
	}
}
