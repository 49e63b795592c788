package core

import (
	"context"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/rng"
)

func testValues(n int) []float64 {
	r := rng.New(42)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.9, 0.2)
	}
	return values
}

// TestEstimateDeterministicUnderConcurrency: the collector side fans the
// per-group EM fits out on goroutines; repeated Estimate calls over the
// same collection — one after another and several at once — must be
// bit-identical. The SW read-out additionally accumulates x̂ across groups,
// which must happen in group order whatever order the fits finish in.
func TestEstimateDeterministicUnderConcurrency(t *testing.T) {
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	d := build[*meanDAP](t, meanSpec(1, 1.0/16, SchemeCEMFStar))
	col, err := d.Collect(rng.New(5), testValues(6000), adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	swd := build[*swDAP](t, swSpec(1, 1.0/16, SchemeCEMFStar))
	swValues, _ := values01(5, 6000)
	swCol, err := swd.Collect(rng.New(5), swValues, adv, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for name, estimate := range map[string]func() (*Result, error){
		"pm": func() (*Result, error) { return d.Estimate(context.Background(), col) },
		"sw": func() (*Result, error) { return swd.Estimate(context.Background(), swCol) },
	} {
		first, err := estimate()
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			again, err := estimate()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: Estimate diverged on repeat %d:\n%+v\nvs\n%+v", name, rep, first, again)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if again, err := estimate(); err != nil || !reflect.DeepEqual(first, again) {
					t.Errorf("%s: parallel Estimate diverged (err %v)", name, err)
				}
			}()
		}
		wg.Wait()
	}
}

// TestEstimateFreqDeterministicUnderConcurrency is the categorical analog.
func TestEstimateFreqDeterministicUnderConcurrency(t *testing.T) {
	d := build[*freqDAP](t, freqSpec(1, 0.25, 12, SchemeEMFStar))
	r := rng.New(6)
	cats := make([]int, 5000)
	for i := range cats {
		cats[i] = r.IntN(12)
	}
	col, err := d.CollectFreq(rng.New(7), cats, &attack.Targeted{Cats: []int{3}}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := d.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		again, err := d.EstimateHist(context.Background(), col)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("EstimateHist diverged on repeat %d", rep)
		}
	}
}

// sentinelAdv reports a fixed poison value so tests can count Byzantine
// reports per group.
type sentinelAdv struct{ v float64 }

func (s sentinelAdv) Name() string { return "sentinel" }
func (s sentinelAdv) Poison(_ *rand.Rand, _ attack.Env, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = s.v
	}
	return out
}

// TestCollectSpreadsByzantineAcrossGroups guards the single-shuffle
// Collect: the strided Byzantine slots must land ~γ in every group (the
// naive prefix split would concentrate them all in the first groups).
func TestCollectSpreadsByzantineAcrossGroups(t *testing.T) {
	d := build[*meanDAP](t, meanSpec(1, 1.0/16, SchemeEMF))
	const gamma = 0.25
	col, err := d.Collect(rng.New(9), testValues(20000), sentinelAdv{v: 99}, gamma)
	if err != nil {
		t.Fatal(err)
	}
	for tdx, g := range d.Groups() {
		reports := col.Groups[tdx]
		poisoned := 0
		for _, v := range reports {
			if v == 99 {
				poisoned++
			}
		}
		frac := float64(poisoned) / float64(len(reports))
		if frac < gamma-0.05 || frac > gamma+0.05 {
			t.Fatalf("group %d (ε=%v): Byzantine fraction %v, want ≈%v", tdx, g.Eps, frac, gamma)
		}
	}
}

// TestSampleSubset checks uniform k-subset sampling basics.
func TestSampleSubset(t *testing.T) {
	if SampleSubset(rng.New(1), 100, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
	set := SampleSubset(rng.New(1), 1000, 250)
	count := 0
	for i := 0; i < 1000; i++ {
		if set[i>>6]&(1<<(uint(i)&63)) != 0 {
			count++
		}
	}
	if count != 250 {
		t.Fatalf("subset size %d, want 250", count)
	}
}
