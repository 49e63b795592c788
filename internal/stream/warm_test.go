package stream_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stream"
)

// warmTenantPair builds two identically-specced tenants, one with epoch
// warm starts and one without, and replays the same two-epoch workload
// into both.
func warmTenantPair(t *testing.T) (warm, cold *stream.Tenant) {
	t.Helper()
	const n = 1800
	mk := func(warmOn bool) *stream.Tenant {
		tn, err := stream.NewTenant(map[bool]string{true: "warm", false: "cold"}[warmOn], stream.Config{
			Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25,
				Scheme: core.SchemeEMFStar.String()},
			ExpectedUsers: n, Shards: 1,
			Window: stream.WindowConfig{Mode: stream.Sliding, Span: 8},
			Warm:   warmOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	warm, cold = mk(true), mk(false)

	d := batchEstimator(t, core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar)))
	r := rng.New(71)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Uniform(r, -0.6, 0.2)
	}
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	// Two epochs of reports: two independent collections from the same
	// population — the stream analogue of consecutive windows.
	for epoch := 0; epoch < 2; epoch++ {
		col, err := d.Collect(r, values, adv, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, tn := range []*stream.Tenant{warm, cold} {
			for g, reports := range col.Groups {
				slots := tn.Groups()[g].Reports
				u := 0
				for lo := 0; lo < len(reports); lo += slots {
					hi := min(lo+slots, len(reports))
					user := "e" + itoa(epoch) + "g" + itoa(g) + "u" + itoa(u)
					if err := tn.Ingest(user, g, reports[lo:hi]); err != nil {
						t.Fatal(err)
					}
					u++
				}
			}
			if _, err := tn.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return warm, cold
}

// A warm-started tenant re-estimates each epoch from the previous
// rotation's fits: the second rotation must spend fewer EM iterations
// than the cold tenant's, report warm hits, and stay within tolerance of
// the cold (bit-exact-to-batch) estimate.
func TestTenantWarmRotation(t *testing.T) {
	warm, cold := warmTenantPair(t)
	ws, cs := warm.Cached(), cold.Cached()
	if ws == nil || cs == nil {
		t.Fatal("missing cached snapshots")
	}
	if ws.Epoch != 2 || cs.Epoch != 2 {
		t.Fatalf("expected two sealed epochs, got warm=%d cold=%d", ws.Epoch, cs.Epoch)
	}
	if ws.Result.WarmHits <= cs.Result.WarmHits {
		t.Fatalf("warm tenant reported %d warm hits vs cold %d", ws.Result.WarmHits, cs.Result.WarmHits)
	}
	if ws.Result.EMFIters >= cs.Result.EMFIters {
		t.Fatalf("warm rotation spent %d EM iterations, cold %d", ws.Result.EMFIters, cs.Result.EMFIters)
	}
	if diff := math.Abs(ws.Result.Mean - cs.Result.Mean); diff > 0.02 {
		t.Fatalf("warm mean %v vs cold %v", ws.Result.Mean, cs.Result.Mean)
	}
	if diff := math.Abs(ws.Result.Gamma - cs.Result.Gamma); diff > 0.02 {
		t.Fatalf("warm γ̂ %v vs cold %v", ws.Result.Gamma, cs.Result.Gamma)
	}
}

// The warm flag round-trips through the spec's Serve section, so a tenant
// recreated from Spec() keeps its warm-start behaviour.
func TestWarmServeSpecRoundTrip(t *testing.T) {
	tn, err := stream.NewTenant("w", stream.Config{
		Spec:          core.Spec{Task: core.TaskMean, Eps: 1},
		ExpectedUsers: 256, Warm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := tn.Spec()
	if sp.Serve == nil || !sp.Serve.Warm {
		t.Fatal("Serve section lost the warm flag")
	}
	tn2, err := stream.NewTenantSpec("w2", sp)
	if err != nil {
		t.Fatal(err)
	}
	if !tn2.Config().Warm {
		t.Fatal("recreated tenant lost the warm flag")
	}
}

// The steady-state ingest path (known user, pooled index buffer, striped
// histogram add) must not allocate.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard applies to production builds")
	}
	tn, err := stream.NewTenant("a", stream.Config{
		Spec:          core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25},
		ExpectedUsers: 4096, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-register users in the last (cheapest-per-report) group and warm
	// the pools; each user can afford 2^(h−1) single-value reports.
	h := len(tn.Groups())
	g := h - 1
	const users = 64
	vals := []float64{0.25}
	names := make([]string, users) // prebuilt: only Ingest itself is measured
	for u := 0; u < users; u++ {
		names[u] = "u" + itoa(u)
		if err := tn.Ingest(names[u], g, vals); err != nil {
			t.Fatal(err)
		}
	}
	// Instrumentation must be live during the measurement — the guard
	// covers the metered path, not a stripped one — and must cost zero
	// allocations: the tenant's handles are pre-bound, so each accepted
	// ingest is one atomic add on a counter.
	sc := scrapeDefault(t)
	before := sc.Value("dap_stream_reports_ingested_total", map[string]string{"tenant": "a"})
	u := 0
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tn.Ingest(names[u%users], g, vals); err != nil {
			t.Fatal(err)
		}
		u++
	})
	if allocs >= 1 {
		t.Fatalf("steady-state ingest allocates %v times per call", allocs)
	}
	sc = scrapeDefault(t)
	after := sc.Value("dap_stream_reports_ingested_total", map[string]string{"tenant": "a"})
	// AllocsPerRun executes runs+1 iterations (one warm-up); anything
	// below runs means the counter is not wired to the measured path.
	if after-before < runs {
		t.Fatalf("ingest counter advanced by %v during %d metered ingests; instrumentation not active", after-before, runs)
	}
}

// The steady-state batch path allocates only the []error it returns: a
// 200-entry IngestBatch of known users spread over every group takes its
// staging and binding scratch from the pool.
func TestIngestBatchSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard applies to production builds")
	}
	tn, err := stream.NewTenant("batch", stream.Config{
		Spec:          core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 1.0 / 64},
		ExpectedUsers: 8192, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch, runs = 200, 20
	// Every entry is a joined user's first report, so each is accepted and
	// no user runs out of budget; Join binds users round-robin to groups.
	entries := make([]stream.BatchEntry, (runs+1)*batch)
	for i := range entries {
		id, g := tn.Join()
		entries[i] = stream.BatchEntry{User: id, Group: g.Index, Values: []float64{0.25}}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i, err := range tn.IngestBatch(entries[next : next+batch]) {
			if err != nil {
				t.Fatalf("entry %d: %v", next+i, err)
			}
		}
		next += batch
	})
	if allocs > 1 {
		t.Fatalf("a %d-entry IngestBatch allocates %v times, want only its []error", batch, allocs)
	}
}

// scrapeDefault renders and re-parses the process-wide registry, so the
// assertion exercises the same exposition surface GET /metrics serves.
func scrapeDefault(t *testing.T) *metrics.Scrape {
	t.Helper()
	var buf bytes.Buffer
	if _, err := metrics.Default().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func BenchmarkIngest(b *testing.B) {
	tn, err := stream.NewTenant("b", stream.Config{
		Spec:          core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 1.0 / 1024},
		ExpectedUsers: 1 << 16, Shards: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := len(tn.Groups())
	maxPerUser := 1 << (h - 1) // group h−1 affords 2^(h−1) single-value reports
	vals := []float64{0.25}
	var names []string
	name := func(u int) string {
		for len(names) <= u {
			names = append(names, "u"+itoa(len(names)))
		}
		return names[u]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tn.Ingest(name(i/maxPerUser), h-1, vals); err != nil {
			b.Fatal(err)
		}
	}
}
