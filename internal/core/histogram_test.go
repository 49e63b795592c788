package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/emf"
	"repro/internal/rng"
	"repro/internal/stats"
)

// histFromCollection reduces a collection to the histogram sufficient
// statistic exactly as Estimate does internally.
func histFromCollection(t *testing.T, d *meanDAP, col *Collection) *HistCollection {
	t.Helper()
	h := d.H()
	hc := &HistCollection{Counts: make([][]float64, h), Sums: make([]float64, h)}
	for g := 0; g < h; g++ {
		din, dprime := emf.BucketCounts(len(col.Groups[g]), d.mechs[g].C())
		m, err := emf.BuildNumericCached(d.mechs[g], din, dprime)
		if err != nil {
			t.Fatal(err)
		}
		hc.Counts[g] = m.Counts(col.Groups[g])
		hc.Sums[g] = stats.Sum(col.Groups[g])
	}
	return hc
}

// The histogram-equivalence invariant: the per-group output histogram plus
// the exact report sum is a sufficient statistic, so EstimateHist must
// reproduce Estimate bit for bit on the same reports.
func TestEstimateHistEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
		gamma  float64
		auto   bool
	}{
		{"emf-clean", SchemeEMF, 0, false},
		{"emfstar-attacked", SchemeEMFStar, 0.25, false},
		{"cemfstar-attacked", SchemeCEMFStar, 0.3, false},
		{"cemfstar-auto-oprime", SchemeCEMFStar, 0.2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := meanSpec(1, 0.25, tc.scheme)
			if tc.auto {
				sp = meanSpec(1, 0.25, tc.scheme, WithAutoOPrime(0))
			}
			d := build[*meanDAP](t, sp)
			r := rng.New(11)
			values := make([]float64, 1500)
			for i := range values {
				values[i] = rng.Uniform(r, -0.6, 0.2)
			}
			col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := d.Estimate(context.Background(), col)
			if err != nil {
				t.Fatal(err)
			}
			hist, err := d.EstimateHist(context.Background(), histFromCollection(t, d, col))
			if err != nil {
				t.Fatal(err)
			}
			// AutoOPrime is the one stage allowed to differ (bucket centers
			// stand in for sorted raw reports); everything else must match
			// exactly, and even with AutoOPrime the estimates must agree to
			// well under a bucket width.
			tol := 0.0
			if tc.auto {
				tol = 0.05
			}
			if diff := math.Abs(batch.Mean - hist.Mean); diff > tol {
				t.Fatalf("mean: batch %v hist %v (diff %g)", batch.Mean, hist.Mean, diff)
			}
			if !tc.auto {
				if batch.Gamma != hist.Gamma {
					t.Fatalf("gamma: batch %v hist %v", batch.Gamma, hist.Gamma)
				}
				for g := range batch.GroupMeans {
					if diff := math.Abs(batch.GroupMeans[g] - hist.GroupMeans[g]); diff > 1e-12 {
						t.Fatalf("group %d mean: batch %v hist %v", g, batch.GroupMeans[g], hist.GroupMeans[g])
					}
					if batch.GroupGammas[g] != hist.GroupGammas[g] {
						t.Fatalf("group %d gamma differs", g)
					}
				}
			}
		})
	}
}

func TestEstimateHistValidation(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 0.25, SchemeEMF))
	ctx := context.Background()
	if _, err := d.EstimateHist(ctx, nil); err == nil {
		t.Fatal("nil collection accepted")
	}
	if _, err := d.EstimateHist(ctx, &HistCollection{Counts: make([][]float64, 1)}); err == nil {
		t.Fatal("wrong group arity accepted")
	}
	hc := &HistCollection{Counts: make([][]float64, d.H()), Sums: make([]float64, d.H())}
	for i := range hc.Counts {
		hc.Counts[i] = make([]float64, 16)
	}
	if _, err := d.EstimateHist(ctx, hc); err == nil {
		t.Fatal("empty histograms accepted")
	}
}

// PessimisticOHist must track PessimisticO up to one bucket width.
func TestPessimisticOHistMatchesRaw(t *testing.T) {
	r := rng.New(3)
	reports := make([]float64, 4000)
	for i := range reports {
		reports[i] = rng.Uniform(r, -2, 2)
	}
	const lo, hi, buckets = -2.5, 2.5, 200
	counts := make([]float64, buckets)
	centers := make([]float64, buckets)
	w := (hi - lo) / buckets
	for i := range centers {
		centers[i] = lo + (float64(i)+0.5)*w
	}
	for _, v := range reports {
		b := int((v - lo) / w)
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	for _, right := range []bool{true, false} {
		raw := PessimisticO(reports, 0.4, right)
		hist := PessimisticOHist(counts, centers, 0.4, right)
		if diff := math.Abs(raw - hist); diff > w {
			t.Fatalf("right=%v: raw %v hist %v (diff %g > bucket width %g)", right, raw, hist, diff, w)
		}
	}
}

// SW: the histogram entry point must agree closely with the batch path
// (the trimmed-EMS O′ is the only approximate stage).
func TestSWEstimateHistCloseToBatch(t *testing.T) {
	d := build[*swDAP](t, swSpec(1, 0.25, SchemeCEMFStar))
	r := rng.New(5)
	values := make([]float64, 1500)
	for i := range values {
		values[i] = rng.Uniform(r, 0.2, 0.8)
	}
	col, err := d.Collect(r, values, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	h := d.H()
	hc := &HistCollection{Counts: make([][]float64, h)}
	for g := 0; g < h; g++ {
		c := d.mechs[g].OutputDomain().Width()
		din, dprime := emf.BucketCounts(len(col.Groups[g]), c)
		m, err := emf.BuildNumericCached(d.mechs[g], din, dprime)
		if err != nil {
			t.Fatal(err)
		}
		hc.Counts[g] = m.Counts(col.Groups[g])
	}
	hist, err := d.EstimateHist(context.Background(), hc)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(batch.Mean - hist.Mean); diff > 0.05 {
		t.Fatalf("sw mean: batch %v hist %v (diff %g)", batch.Mean, hist.Mean, diff)
	}
}

func TestTrimHistTop(t *testing.T) {
	counts := []float64{4, 4, 4, 4}
	got := trimHistTop(counts, 0.25)
	want := []float64{4, 4, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trim = %v, want %v", got, want)
		}
	}
	// Fractional boundary bucket.
	got = trimHistTop(counts, 0.375)
	want = []float64{4, 4, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trim = %v, want %v", got, want)
		}
	}
	if stats.Sum(counts) != 16 {
		t.Fatal("input mutated")
	}
}
