package attack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ldp"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stats"
)

func env1() Env { return EnvFor(pm.MustNew(1), 0) }

func TestBBAWithinRange(t *testing.T) {
	r := rng.New(1)
	env := env1()
	c := env.Domain.Hi
	for _, rg := range []Range{RangeHighQuarter, RangeHighHalf, RangeLowHalf, RangeFull} {
		a := NewBBA(rg, DistUniform)
		vals := a.Poison(r, env, 2000)
		if len(vals) != 2000 {
			t.Fatalf("%s: %d values", a.Name(), len(vals))
		}
		lo, hi := rg.LoC*c, rg.HiC*c
		for _, v := range vals {
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("%s: value %v outside [%v,%v]", a.Name(), v, lo, hi)
			}
		}
	}
}

func TestBBALeftSide(t *testing.T) {
	r := rng.New(2)
	env := env1()
	a := &BBA{Side: SideLeft, Range: RangeHighHalf, Dist: DistUniform}
	for _, v := range a.Poison(r, env, 1000) {
		if v > 0 {
			t.Fatalf("left-side poison value %v > O", v)
		}
	}
}

func TestBBADistributions(t *testing.T) {
	r := rng.New(3)
	env := env1()
	c := env.Domain.Hi
	for _, d := range Dists() {
		a := NewBBA(RangeHighHalf, d)
		vals := a.Poison(r, env, 20000)
		mean := stats.Mean(vals)
		if mean < 0.5*c || mean > c {
			t.Fatalf("%s: mean %v outside range", d, mean)
		}
		switch d {
		case DistBeta16:
			if mean > 0.5*c+0.25*(0.5*c) {
				t.Fatalf("Beta(1,6) should skew low, mean %v", mean)
			}
		case DistBeta61:
			if mean < c-0.25*(0.5*c) {
				t.Fatalf("Beta(6,1) should skew high, mean %v", mean)
			}
		}
	}
}

func TestDistStrings(t *testing.T) {
	names := map[Dist]string{DistUniform: "Uniform", DistGaussian: "Gaussian", DistBeta16: "Beta(1,6)", DistBeta61: "Beta(6,1)"}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("%v.String() = %q", int(d), d.String())
		}
	}
	if Dist(99).String() != "unknown" {
		t.Fatal("unknown dist string")
	}
}

func TestGBASplitsSides(t *testing.T) {
	r := rng.New(4)
	env := env1()
	a := &GBA{FracLeft: 0.3, LeftRange: RangeHighHalf, RightRange: RangeHighHalf, Dist: DistUniform}
	vals := a.Poison(r, env, 1000)
	nLeft := 0
	for _, v := range vals {
		if v < 0 {
			nLeft++
		}
	}
	if nLeft != 300 {
		t.Fatalf("left values = %d, want 300", nLeft)
	}
}

func TestNoneAdversary(t *testing.T) {
	if got := (None{}).Poison(rng.New(1), env1(), 50); len(got) != 0 {
		t.Fatalf("None produced %d values", len(got))
	}
	if (None{}).Name() != "none" {
		t.Fatal("bad name")
	}
}

func TestIMAReportsLookLegit(t *testing.T) {
	r := rng.New(5)
	env := env1()
	a := &IMA{G: 1}
	vals := a.Poison(r, env, 50000)
	for _, v := range vals {
		if env.Domain.Clamp(v) != v {
			t.Fatalf("IMA report %v outside domain", v)
		}
	}
	// Honest perturbation of g=1 keeps the report mean near 1.
	if mean := stats.Mean(vals); math.Abs(mean-1) > 0.05 {
		t.Fatalf("IMA mean %v, want ~1", mean)
	}
}

func TestEvasionSplit(t *testing.T) {
	r := rng.New(6)
	env := env1()
	c := env.Domain.Hi
	a := &Evasion{A: 0.3}
	vals := a.Poison(r, env, 1000)
	evasive, true_ := 0, 0
	for _, v := range vals {
		switch {
		case math.Abs(v-(-c/2)) < 1e-9:
			evasive++
		case v >= c/2 && v <= c:
			true_++
		default:
			t.Fatalf("unexpected evasion value %v", v)
		}
	}
	if evasive != 300 || true_ != 700 {
		t.Fatalf("split %d/%d, want 300/700", evasive, true_)
	}
}

func TestRangeByName(t *testing.T) {
	for _, name := range []string{"[3C/4,C]", "[C/2,C]", "[O,C/2]", "[O,C]", "[C/2,3C/4]"} {
		if _, ok := RangeByName(name); !ok {
			t.Fatalf("range %q missing", name)
		}
	}
	if _, ok := RangeByName("nope"); ok {
		t.Fatal("unknown range resolved")
	}
}

func TestRangeResolveAsymmetricDomain(t *testing.T) {
	// SW-like domain [−b, 1+b] anchored at O.
	env := Env{Domain: ldp.Domain{Lo: -0.2, Hi: 1.2}, O: 0.5}
	lo, hi := RangeHighHalf.Resolve(env, SideRight)
	if lo < 0.5 || hi > 1.2+1e-12 || lo >= hi {
		t.Fatalf("resolved [%v,%v]", lo, hi)
	}
	lo, hi = RangeHighHalf.Resolve(env, SideLeft)
	if hi > 0.5 || lo < -0.2-1e-12 || lo >= hi {
		t.Fatalf("resolved left [%v,%v]", lo, hi)
	}
}

func TestSideString(t *testing.T) {
	if SideLeft.String() != "left" || SideRight.String() != "right" {
		t.Fatal("Side.String broken")
	}
}

func TestReduceToBBAPreservesDeviation(t *testing.T) {
	vals := []float64{-3, -2.5, -1, 0.5, 2}
	o, dl, dr := 0.0, -4.0, 4.0
	var wantDev float64
	for _, v := range vals {
		wantDev += v - o
	}
	out, side, err := ReduceToBBA(vals, o, dl, dr)
	if err != nil {
		t.Fatal(err)
	}
	if side != SideLeft {
		t.Fatalf("side = %v, want left", side)
	}
	var gotDev float64
	for _, v := range out {
		if v > o {
			t.Fatalf("value %v on wrong side", v)
		}
		if v < dl {
			t.Fatalf("value %v below domain", v)
		}
		gotDev += v - o
	}
	if math.Abs(gotDev-wantDev) > 1e-9 {
		t.Fatalf("deviation %v, want %v", gotDev, wantDev)
	}
}

func TestReduceToBBARightHeavy(t *testing.T) {
	vals := []float64{-0.5, 1, 2, 3}
	out, side, err := ReduceToBBA(vals, 0, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if side != SideRight {
		t.Fatalf("side = %v", side)
	}
	var dev float64
	for _, v := range out {
		if v < 0 {
			t.Fatalf("value %v on wrong side", v)
		}
		dev += v
	}
	if math.Abs(dev-5.5) > 1e-9 {
		t.Fatalf("deviation %v, want 5.5", dev)
	}
}

func TestReduceToBBAValidation(t *testing.T) {
	if _, _, err := ReduceToBBA([]float64{0}, 0, 1, -1); err == nil {
		t.Fatal("inverted domain accepted")
	}
	if _, _, err := ReduceToBBA([]float64{0}, 9, -1, 1); err == nil {
		t.Fatal("O outside domain accepted")
	}
	if _, _, err := ReduceToBBA([]float64{7}, 0, -1, 1); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
}

func TestReduceToBBABalanced(t *testing.T) {
	out, _, err := ReduceToBBA([]float64{-1, 1}, 0, -2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("balanced attack should reduce to empty, got %v", out)
	}
}

// Property (Theorem 1): for random two-sided attacks, the reduction yields
// a one-sided set with identical total deviation, inside the domain.
func TestReduceToBBAProperty(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint16, nRaw uint8) bool {
		rr := rng.Split(uint64(seed), uint64(nRaw))
		n := 1 + int(nRaw%20)
		vals := make([]float64, n)
		var want float64
		for i := range vals {
			vals[i] = rng.Uniform(rr, -5, 5)
			want += vals[i]
		}
		out, side, err := ReduceToBBA(vals, 0, -5, 5)
		if err != nil {
			return false
		}
		var got float64
		for _, v := range out {
			if v < -5 || v > 5 {
				return false
			}
			if side == SideLeft && v > 0 {
				return false
			}
			if side == SideRight && v < 0 {
				return false
			}
			got += v
		}
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}
