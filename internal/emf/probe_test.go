package emf

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
)

func TestProbeSideRight(t *testing.T) {
	r := rng.New(1)
	sc := makeScenario(t, r, 0.25, 40000, 0.25, -1, 0.5, 0.5, 1)
	probe, err := ProbeSide(sc.matrix, sc.counts, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Side != Right {
		t.Fatalf("side = %v (VarL=%v VarR=%v), want right", probe.Side, probe.VarL, probe.VarR)
	}
	if probe.Chosen() != probe.Right {
		t.Fatal("Chosen should return the right-side result")
	}
}

func TestProbeSideLeft(t *testing.T) {
	r := rng.New(2)
	mech := pm.MustNew(0.25)
	d, dp := BucketCounts(40000, mech.C())
	m, err := BuildNumeric(mech, d, dp)
	if err != nil {
		t.Fatal(err)
	}
	c := mech.C()
	reports := make([]float64, 0, 40000)
	for i := 0; i < 30000; i++ {
		reports = append(reports, mech.Perturb(r, rng.Uniform(r, -0.5, 1)))
	}
	for i := 0; i < 10000; i++ {
		reports = append(reports, rng.Uniform(r, -c, -c/2))
	}
	probe, err := ProbeSide(m, m.Counts(reports), 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Side != Left {
		t.Fatalf("side = %v (VarL=%v VarR=%v), want left", probe.Side, probe.VarL, probe.VarR)
	}
	if probe.Chosen() != probe.Left {
		t.Fatal("Chosen should return the left-side result")
	}
}

// The §IV-C features as the collector reads them off a side probe: the
// poisoned side, γ̂ and the poison mean of the chosen run.
func TestExtractFeatures(t *testing.T) {
	r := rng.New(3)
	sc := makeScenario(t, r, 0.125, 50000, 0.25, -1, 0, 0.5, 1)
	probe, err := ProbeSide(sc.matrix, sc.counts, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Side != Right {
		t.Fatalf("side = %v", probe.Side)
	}
	res := probe.Chosen()
	if g := res.Gamma(); g < 0.15 || g > 0.35 {
		t.Fatalf("γ̂ = %v, want ~0.25", g)
	}
	c := sc.mech.C()
	if pm := PoisonMean(sc.matrix, res); pm < 0.5*c || pm > c {
		t.Fatalf("poison mean %v outside [C/2, C]", pm)
	}
}

func TestProbeCategoriesFindsPoisonedCategory(t *testing.T) {
	r := rng.New(4)
	mech := krr.MustNew(0.5, 15)
	m := BuildCategorical(mech)
	cov := dataset.COVID19()
	records := cov.Sample(r, 30000)
	counts := make([]float64, 15)
	for _, rec := range records {
		counts[mech.PerturbCat(r, rec)]++
	}
	// 10k poison reports, all in category 10.
	counts[10] += 10000
	set, res, err := ProbeCategories(m, counts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range set {
		if j == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoned category 10 not in probed set %v", set)
	}
	if len(set) > 8 {
		t.Fatalf("probe did not narrow: %v", set)
	}
	if res.Gamma() <= 0.05 {
		t.Fatalf("γ̂ = %v, want substantial", res.Gamma())
	}
}

func TestProbeCategoriesMultiplePoisoned(t *testing.T) {
	r := rng.New(5)
	mech := krr.MustNew(0.5, 15)
	m := BuildCategorical(mech)
	cov := dataset.COVID19()
	records := cov.Sample(r, 30000)
	counts := make([]float64, 15)
	for _, rec := range records {
		counts[mech.PerturbCat(r, rec)]++
	}
	for _, j := range []int{10, 11, 12} {
		counts[j] += 4000
	}
	set, _, err := ProbeCategories(m, counts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// At least one of the poisoned categories must be located; the CEMF*
	// suppression stage refines the exact membership afterwards.
	found := 0
	for _, j := range set {
		if j >= 10 && j <= 12 {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("probed set %v misses poisoned block 10-12", set)
	}
}
