package stream_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Concurrent ingest + rotate + estimate on one tenant. Run under -race in
// CI; the invariant checked at the end is conservation: every accepted
// report is in exactly one epoch of the (all-covering) sliding window.
func TestConcurrentIngestRotateEstimate(t *testing.T) {
	tn, err := stream.NewTenantSpec("race", core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4, Window: "sliding", Span: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		ingesters     = 4
		usersPerGroup = 120
	)
	groups := tn.Groups()
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			mechs := make([]*pm.Mechanism, len(groups))
			for g := range groups {
				mechs[g], _ = pm.New(groups[g].Eps)
			}
			for i := 0; i < usersPerGroup; i++ {
				for g := range groups {
					id := "w" + itoa(w) + "g" + itoa(g) + "u" + itoa(i)
					vals := make([]float64, groups[g].Reports)
					for k := range vals {
						vals[k] = mechs[g].Perturb(r, 0.2)
					}
					if err := tn.Ingest(id, g, vals); err != nil {
						t.Error(err)
						return
					}
					accepted.Add(int64(len(vals)))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // rotator
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = tn.Rotate()
			}
		}
	}()
	go func() { // estimator + status reader
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = tn.Estimate(true)
				_ = tn.Cached()
				_ = tn.Status()
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}
	// Final rotation folds any live remainder into the sealed window.
	snap, err := tn.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reports != float64(accepted.Load()) {
		t.Fatalf("window holds %v reports, accepted %d", snap.Reports, accepted.Load())
	}
}

// Two tenants hammered concurrently: no shared state, estimates land on
// their own data.
func TestConcurrentTenantsIsolated(t *testing.T) {
	reg := stream.NewRegistry()
	defer reg.Close()
	mk := func(name string) *stream.Tenant {
		tn, err := reg.CreateSpec(name, core.Spec{
			Task: core.TaskMean, Eps: 1, Eps0: 0.5,
			Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
			Serve: &core.ServeSpec{Buckets: 16, Shards: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	a, b := mk("a"), mk("b")
	// The two tenants ingest populations 0.6 apart; EMF's no-attack
	// false-positive bias is side-symmetric, so the estimated means must
	// preserve a clear gap if (and only if) the histograms are isolated.
	drive := func(tn *stream.Tenant, seed uint64, lo, hi float64) func() {
		return func() {
			r := rng.New(seed)
			groups := tn.Groups()
			for i := 0; i < 150; i++ {
				for g := range groups {
					mech, _ := pm.New(groups[g].Eps)
					vals := make([]float64, groups[g].Reports)
					v := rng.Uniform(r, lo, hi)
					for k := range vals {
						vals[k] = mech.Perturb(r, v)
					}
					if err := tn.Ingest("g"+itoa(g)+"u"+itoa(i), g, vals); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}
	var wg sync.WaitGroup
	for _, f := range []func(){drive(a, 21, -0.7, 0.1), drive(b, 22, -0.1, 0.7)} {
		wg.Add(1)
		go func(f func()) { defer wg.Done(); f() }(f)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	ea, err := a.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if eb.Result.Mean-ea.Result.Mean < 0.2 {
		t.Fatalf("isolation violated: a=%v b=%v", ea.Result.Mean, eb.Result.Mean)
	}
}
