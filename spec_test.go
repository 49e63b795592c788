package dap

// Task-spec API tests: JSON round-trip fidelity (marshal → unmarshal →
// Build estimates bit-identically to the estimator built from the spec
// before the round trip, for every task kind), validation error taxonomy, and the end-to-end
// acceptance invariant — one JSON spec powering batch estimation, a
// stream tenant and the wire API with equal results.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/transport"
)

// roundTrip marshals and unmarshals a spec through JSON.
func roundTrip(t *testing.T, sp core.Spec) core.Spec {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ParseSpec(data)
	if err != nil {
		t.Fatalf("round-trip of %s: %v", data, err)
	}
	return got
}

// buildAs is Build for tests: it fails t on error and asserts the face
// the test drives.
func buildAs[T any](t testing.TB, sp core.Spec) T {
	t.Helper()
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	face, ok := est.(T)
	if !ok {
		t.Fatalf("the %s estimator lacks %T", sp.Task, &face)
	}
	return face
}

// collectEstimator is a numeric estimator whose user side a test
// simulates before estimating.
type collectEstimator interface {
	core.Estimator
	core.Collector
}

// catCollector and gamedCollector reach the simulation hooks of the
// frequency and baseline estimators, which no core face carries.
type catCollector interface {
	core.Estimator
	CollectFreq(r *rand.Rand, cats []int, adv attack.Adversary, gamma float64) (*core.HistCollection, error)
}

type gamedCollector interface {
	core.Estimator
	GamedCollect(r *rand.Rand, values []float64, adv attack.Adversary, gamma float64) (*core.Collection, error)
}

func testValues(seed uint64, n int) []float64 {
	r := rng.New(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = stats.Clamp(rng.Normal(r, -0.3, 0.25), -1, 1)
	}
	return vals
}

// TestSpecRoundTripMean: a JSON-round-tripped mean spec estimates the
// exact same Collection bit-identically to the estimator built from the
// spec before the round trip.
func TestSpecRoundTripMean(t *testing.T) {
	orig := core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeCEMFStar),
		core.WithEMFMaxIter(80))
	est, err := core.Build(roundTrip(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	d := buildAs[collectEstimator](t, orig)
	col, err := d.Collect(rng.New(5), testValues(4, 1500),
		attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Gamma != want.Gamma || got.PoisonedRight != want.PoisonedRight {
		t.Fatalf("spec estimate (%v, %v) != direct (%v, %v)", got.Mean, got.Gamma, want.Mean, want.Gamma)
	}
	for g := range want.GroupMeans {
		if got.GroupMeans[g] != want.GroupMeans[g] || got.Weights[g] != want.Weights[g] {
			t.Fatalf("group %d diverges", g)
		}
	}
}

// TestSpecRoundTripDistribution: same invariant for the SW variant.
func TestSpecRoundTripDistribution(t *testing.T) {
	orig := core.NewSpec(core.DistributionTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80))
	est, err := core.Build(roundTrip(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	d := buildAs[collectEstimator](t, orig)
	vals := testValues(6, 1200)
	for i, v := range vals {
		vals[i] = (v + 1) / 2
	}
	col, err := d.Collect(rng.New(7), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Gamma != want.Gamma {
		t.Fatalf("spec (%v, %v) != direct (%v, %v)", got.Mean, got.Gamma, want.Mean, want.Gamma)
	}
	for i := range want.XHat {
		if got.XHat[i] != want.XHat[i] {
			t.Fatalf("xhat[%d] diverges", i)
		}
	}
}

// TestSpecRoundTripFrequency: same invariant for the k-RR variant, via
// both the histogram and the raw-report faces.
func TestSpecRoundTripFrequency(t *testing.T) {
	orig := core.NewSpec(core.FrequencyTask(6),
		core.WithBudget(2, 1), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80))
	est, err := core.Build(roundTrip(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	d := buildAs[catCollector](t, orig)
	r := rng.New(8)
	cats := make([]int, 2000)
	for i := range cats {
		cats[i] = r.IntN(3) // skewed to low categories
	}
	col, err := d.CollectFreq(rng.New(9), cats, &attack.Targeted{Cats: []int{5}}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.EstimateHist(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.EstimateHist(context.Background(), &core.HistCollection{Counts: col.Counts})
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.Freqs {
		if got.Freqs[j] != want.Freqs[j] {
			t.Fatalf("freq[%d]: spec %v direct %v", j, got.Freqs[j], want.Freqs[j])
		}
	}
	if len(got.PoisonCats) != len(want.PoisonCats) {
		t.Fatalf("poison cats: %v vs %v", got.PoisonCats, want.PoisonCats)
	}
}

// TestSpecRoundTripVariance: equal seeds give equal variance rounds
// through the round-tripped spec (the split into halves consumes the rng
// identically).
func TestSpecRoundTripVariance(t *testing.T) {
	orig := core.NewSpec(core.VarianceTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithEMFMaxIter(80))
	est, err := core.Build(roundTrip(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(11, 1600)
	direct := buildAs[core.Runner](t, orig)
	want, err := direct.Run(rng.New(12), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.(core.Runner).Run(rng.New(12), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Variance != want.Variance || got.SecondMoment != want.SecondMoment {
		t.Fatalf("spec (%v, %v) != direct (%v, %v)", got.Mean, got.Variance, want.Mean, want.Variance)
	}
}

// TestSpecRoundTripBaseline: same invariant for the §IV protocol.
func TestSpecRoundTripBaseline(t *testing.T) {
	orig := core.NewSpec(core.BaselineTask(0.125, 0.875),
		core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(80))
	est, err := core.Build(roundTrip(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	direct := buildAs[core.Runner](t, orig)
	vals := testValues(13, 1500)
	want, err := direct.Run(rng.New(14), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.(core.Runner).Run(rng.New(14), vals, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Gamma != want.Gamma {
		t.Fatalf("spec (%v, %v) != direct (%v, %v)", got.Mean, got.Gamma, want.Mean, want.Gamma)
	}
}

// TestSpecDefense: a defense spec selects the comparator by name and
// matches the direct function call — both through Estimate on a given
// collection and through Run, whose draws must equal CollectPM's at the
// same seed bit for bit. The experiment harness declares its Ostrich,
// Trimming and Boxplot rows as defense specs on that equivalence.
func TestSpecDefense(t *testing.T) {
	vals := testValues(16, 4000)
	for _, tc := range []struct {
		def    defense.Spec
		direct func(reports []float64) float64
	}{
		{defense.Spec{Name: "ostrich"}, defense.Ostrich},
		{defense.Spec{Name: "trimming", Frac: 0.5, Side: "right"}, func(reports []float64) float64 {
			return defense.Trimming(reports, 0.5, true)
		}},
		{defense.Spec{Name: "boxplot"}, func(reports []float64) float64 { return defense.Boxplot(reports, 1.5) }},
	} {
		for _, eps := range []float64{0.25, 1, 2} {
			est, err := core.Build(roundTrip(t, core.NewSpec(core.MeanTask(),
				core.WithBudget(eps, 1.0/16), core.WithDefense(tc.def))))
			if err != nil {
				t.Fatal(err)
			}
			for ai, adv := range []attack.Adversary{
				attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), &attack.IMA{G: 1}, attack.None{},
			} {
				seed := uint64(15 + ai)
				reports, err := core.CollectPM(rng.New(seed), vals, eps, adv, 0.2, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := stats.Clamp(tc.direct(reports), -1, 1)
				got, err := est.Estimate(context.Background(), &core.Collection{Groups: [][]float64{reports}})
				if err != nil {
					t.Fatal(err)
				}
				run, err := est.(core.Runner).Run(rng.New(seed), vals, adv, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Mean) != math.Float64bits(want) || math.Float64bits(run.Mean) != math.Float64bits(want) {
					t.Fatalf("%s ε=%g %s: Estimate %v, Run %v, direct %v", tc.def.Name, eps, adv.Name(), got.Mean, run.Mean, want)
				}
			}
			// Defenses need raw reports; the histogram face is a typed
			// rejection.
			if _, err := est.EstimateHist(context.Background(), nil); !errors.Is(err, core.ErrBadSpec) {
				t.Fatalf("EstimateHist on defense spec: %v", err)
			}
		}
	}
}

// TestSpecValidation: the ErrBadSpec/ErrDomain taxonomy.
func TestSpecValidation(t *testing.T) {
	bad := []core.Spec{
		{Task: "nope", Eps: 1},
		{Task: core.TaskMean, Eps: -1},
		{Task: core.TaskMean, Eps: 1, Eps0: 2},
		{Task: core.TaskMean, Eps: 1, Eps0: 1e-12}, // 41 groups > MaxGroups
		{Task: core.TaskMean, Eps: 1, Scheme: "quantum"},
		{Task: core.TaskMean, Eps: 1, Weights: "vibes"},
		{Task: core.TaskMean, Eps: 1, Mechanism: "sw"},
		{Task: core.TaskFrequency, Eps: 1, K: 1},
		{Task: core.TaskBaseline, EpsAlpha: 0.9, EpsBeta: 0.1},
		{Task: core.TaskMean, Eps: 1, Defense: &defense.Spec{Name: "magic"}},
		{Task: core.TaskMean, Eps: 1, Defense: &defense.Spec{Name: "trimming", Side: "up"}},
		{Task: core.TaskDistribution, Eps: 1, TrimFrac: 1.5},
		{Task: core.TaskMean, Eps: 1, GammaSup: 1},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Window: "spiral"}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Shards: -1}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Shards: core.MaxServeShards + 1}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Buckets: core.MaxServeBuckets + 1}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{Span: core.MaxServeSpan + 1}},
		{Task: core.TaskMean, Eps: 1, Serve: &core.ServeSpec{ExpectedUsers: core.MaxServeExpectedUsers + 1}},
	}
	for _, sp := range bad {
		if _, err := core.Build(sp); !errors.Is(err, core.ErrBadSpec) {
			t.Fatalf("spec %+v: err = %v, want ErrBadSpec", sp, err)
		}
	}
	// Domain problems wrap both sentinels.
	_, err := core.Build(core.Spec{Task: core.TaskMean, Eps: 1,
		Domain: &core.DomainSpec{Lo: 2, Hi: 1}})
	if !errors.Is(err, core.ErrBadSpec) || !errors.Is(err, core.ErrDomain) {
		t.Fatalf("inverted domain: %v", err)
	}
	// ParseSpec rejects unknown fields loudly.
	if _, err := core.ParseSpec([]byte(`{"task":"mean","eps":1,"epz":2}`)); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("unknown field: %v", err)
	}
}

// TestSpecFiles: every example spec in specs/ parses, validates and
// builds.
func TestSpecFiles(t *testing.T) {
	for _, f := range []string{
		"specs/mean.json", "specs/distribution.json", "specs/frequency.json",
		"specs/variance.json", "specs/baseline.json", "specs/defense-trimming.json",
		"specs/serve.json", "specs/telemetry.json", "specs/attack-bba.json",
		"specs/attack-adaptive-stream.json", "specs/attack-freq-maxgain.json",
	} {
		sp, err := core.LoadSpec(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := core.Build(sp); err != nil {
			t.Fatalf("%s: Build: %v", f, err)
		}
	}
}

// TestSpecEndToEnd is the acceptance invariant of the task-spec redesign:
// one JSON spec, parsed once, powers (1) batch estimation through
// dap.Build, (2) a stream tenant fed the identical reports, and (3) the
// wire API hosting the same spec as a tenant — and all three return the
// same estimate to 1e-12.
func TestSpecEndToEnd(t *testing.T) {
	const n = 1404
	specJSON := []byte(`{
		"task": "mean",
		"scheme": "emfstar",
		"eps": 1,
		"eps0": 0.25,
		"serve": {"expected_users": 1404, "shards": 1}
	}`)
	sp, err := core.ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}

	// (1) Batch: simulate a collection and estimate through Build.
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	col, err := est.(core.Collector).Collect(rng.New(20), testValues(21, n),
		attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := est.Estimate(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}

	// (2) Stream tenant from the same spec, fed the same reports at
	// protocol granularity.
	tn, err := stream.NewTenantSpec("e2e", sp)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(send func(user string, group int, vals []float64) error) {
		t.Helper()
		for g, reports := range col.Groups {
			slots := est.Groups()[g].Reports
			u := 0
			for lo := 0; lo < len(reports); lo += slots {
				hi := min(lo+slots, len(reports))
				user := "g" + strconv.Itoa(g) + "u" + strconv.Itoa(u)
				if err := send(user, g, reports[lo:hi]); err != nil {
					t.Fatal(err)
				}
				u++
			}
		}
	}
	ingest(tn.Ingest)
	snap, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(snap.Result.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("stream mean differs from batch by %g", diff)
	}
	if snap.Result.Gamma != batch.Gamma || snap.Result.PoisonedRight != batch.PoisonedRight {
		t.Fatalf("stream probe (%v,%v) != batch (%v,%v)",
			snap.Result.Gamma, snap.Result.PoisonedRight, batch.Gamma, batch.PoisonedRight)
	}

	// (3) Wire: the same spec becomes a tenant over HTTP; the identical
	// reports flow through batched ingest.
	srv, err := transport.NewServerOpts(stream.Config{Spec: core.NewSpec(core.MeanTask())}, transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := transport.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	created, err := client.CreateTenantSpec(ctx, "e2e", sp)
	if err != nil {
		t.Fatal(err)
	}
	if created.Spec.Task != core.TaskMean || created.Spec.Eps != 1 {
		t.Fatalf("wire spec round-trip: %+v", created.Spec)
	}
	tc := client.Tenant("e2e")
	var reqs []transport.ReportRequest
	ingest(func(user string, group int, vals []float64) error {
		reqs = append(reqs, transport.ReportRequest{User: user, Group: group, Values: vals})
		return nil
	})
	res, err := tc.Ingest(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("wire ingest rejected %d: %v", res.Rejected, res.Errors)
	}
	wireEst, err := tc.Estimate(ctx, "1")
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(wireEst.Mean - batch.Mean); diff > 1e-12 {
		t.Fatalf("wire mean differs from batch by %g", diff)
	}
	if wireEst.Gamma != batch.Gamma {
		t.Fatalf("wire gamma %v != batch %v", wireEst.Gamma, batch.Gamma)
	}
}
