package stream_test

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/stream"
)

func meanConfig() stream.Config {
	return stream.Config{
		Spec: core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25),
			core.WithScheme(core.SchemeEMFStar)),
	}
}

func newMeanTenant(t *testing.T, cfg stream.Config) *stream.Tenant {
	t.Helper()
	tn, err := stream.NewTenant("t", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// fillTenant drives usersPerGroup honest users through every group:
// user (g,i) perturbs value with group g's budget once per report slot.
func fillTenant(t *testing.T, tn *stream.Tenant, r *rand.Rand, usersPerGroup int, lo, hi float64) {
	t.Helper()
	for g, grp := range tn.Groups() {
		mech, err := pm.New(grp.Eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < usersPerGroup; i++ {
			id := "g" + string(rune('0'+g)) + "u" + itoa(i)
			vals := make([]float64, grp.Reports)
			v := rng.Uniform(r, lo, hi)
			for k := range vals {
				vals[k] = mech.Perturb(r, v)
			}
			if err := tn.Ingest(id, g, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestParsers(t *testing.T) {
	if m, err := stream.ParseWindowMode("sliding"); err != nil || m != stream.Sliding {
		t.Fatalf("ParseWindowMode(sliding) = %v, %v", m, err)
	}
	if _, err := stream.ParseWindowMode("bogus"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	tn := newMeanTenant(t, meanConfig())
	cfg := tn.Config()
	if cfg.Shards != 8 || cfg.ExpectedUsers != 4096 || cfg.Window.Span != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Per-group resolutions follow the paper's rule on the expected split.
	bkt := tn.Buckets()
	if len(bkt) != 3 {
		t.Fatalf("buckets = %v", bkt)
	}
	for i, b := range bkt {
		if b < 8 || b%2 != 0 {
			t.Fatalf("group %d resolution %d", i, b)
		}
		if i > 0 && bkt[i] <= bkt[i-1] {
			t.Fatalf("resolutions should grow with report volume: %v", bkt)
		}
	}
	// Tumbling forces span 1.
	c := meanConfig()
	c.Window = stream.WindowConfig{Mode: stream.Tumbling, Span: 5}
	if tn := newMeanTenant(t, c); tn.Config().Window.Span != 1 {
		t.Fatal("tumbling span not forced to 1")
	}
	for _, bad := range []stream.Config{
		{Spec: core.Spec{Task: core.TaskFrequency, Eps: 1, Eps0: 0.5}}, // K missing
		{Spec: core.Spec{Task: core.TaskMean, Eps: -1, Eps0: 0.5}},     // bad budgets
		{Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.5}, Shards: -1},
		// Engine fields set directly obey the spec's serve bounds, so a
		// durable tenant's persisted spec always re-validates on recovery.
		{Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.5}, Shards: core.MaxServeShards + 1},
		{Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.5}, Buckets: core.MaxServeBuckets + 2},
		{Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.5}, ExpectedUsers: core.MaxServeExpectedUsers + 1},
		{Spec: core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.5},
			Window: stream.WindowConfig{Mode: stream.Sliding, Span: core.MaxServeSpan + 1}},
		{Spec: core.Spec{Task: "nope", Eps: 1, Eps0: 0.5}},            // unknown task
		{Spec: core.Spec{Task: core.TaskVariance, Eps: 1, Eps0: 0.5}}, // not streamable
	} {
		if _, err := stream.NewTenant("x", bad); err == nil {
			t.Fatalf("invalid config accepted: %+v", bad)
		}
	}
	if _, err := stream.NewTenant("", meanConfig()); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestJoinRoundRobin(t *testing.T) {
	tn := newMeanTenant(t, meanConfig())
	h := len(tn.Groups())
	seen := map[int]int{}
	for i := 0; i < 3*h; i++ {
		_, g := tn.Join()
		seen[g.Index]++
	}
	for g := 0; g < h; g++ {
		if seen[g] != 3 {
			t.Fatalf("group %d joined %d times", g, seen[g])
		}
	}
	if tn.Joined() != 3*h {
		t.Fatalf("joined = %d", tn.Joined())
	}
}

// ingestStep is one report of an ingest table with the error class it must
// end in ("ok" for accepted, see errClass).
type ingestStep struct {
	name   string
	user   string
	group  int
	values []float64
	want   string
}

// errClass folds an ingest error onto the taxonomy callers branch on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, stream.ErrWrongGroup):
		return "wrong-group"
	case errors.Is(err, privacy.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, core.ErrDomain):
		return "domain"
	default:
		return "invalid"
	}
}

// ingestState is what a table leaves behind: the budget ledger, the
// per-group report counts and the live estimate (or why there is none).
type ingestState struct {
	Ledger  map[string]float64
	Reports []float64
	Result  *core.Result
	EstErr  string
}

// runIngestTable drives steps through every public entry of the one
// ingest path — Ingest per step, a one-entry IngestBatch per step, and the
// whole table as a single IngestBatch — each on a fresh tenant. Every
// entry must put every step in its wanted error class and leave the same
// ledger, counts and estimate behind; that state is returned.
func runIngestTable(t *testing.T, cfg stream.Config, steps []ingestStep) ingestState {
	t.Helper()
	batch := make([]stream.BatchEntry, len(steps))
	for i, st := range steps {
		batch[i] = stream.BatchEntry{User: st.user, Group: st.group, Values: st.values}
	}
	entries := []struct {
		name string
		run  func(*stream.Tenant) []error
	}{
		{"Ingest", func(tn *stream.Tenant) []error {
			errs := make([]error, len(steps))
			for i, st := range steps {
				errs[i] = tn.Ingest(st.user, st.group, st.values)
			}
			return errs
		}},
		{"IngestBatch/one-by-one", func(tn *stream.Tenant) []error {
			errs := make([]error, len(steps))
			for i := range batch {
				errs[i] = tn.IngestBatch(batch[i : i+1])[0]
			}
			return errs
		}},
		{"IngestBatch/whole", func(tn *stream.Tenant) []error { return tn.IngestBatch(batch) }},
	}
	var first ingestState
	for k, entry := range entries {
		tn := newMeanTenant(t, cfg)
		for i, err := range entry.run(tn) {
			if got := errClass(err); got != steps[i].want {
				t.Errorf("%s: step %q ended %s (%v), want %s", entry.name, steps[i].name, got, err, steps[i].want)
			}
		}
		state := ingestState{Ledger: tn.Accountant().Export(), Reports: tn.Status().GroupReports}
		if snap, err := tn.Estimate(true); err != nil {
			state.EstErr = err.Error()
		} else {
			state.Result = snap.Result
		}
		if k == 0 {
			first = state
		} else if !reflect.DeepEqual(state, first) {
			t.Errorf("%s left a different state than %s:\n got %+v\nwant %+v", entry.name, entries[0].name, state, first)
		}
	}
	return first
}

func TestIngestValidation(t *testing.T) {
	dom := pmDomain(t, newMeanTenant(t, meanConfig()).Groups()[0].Eps)
	state := runIngestTable(t, meanConfig(), []ingestStep{
		{"empty user", "", 0, []float64{0}, "invalid"},
		{"bad group", "u", 9, []float64{0}, "invalid"},
		{"negative group", "u", -1, []float64{0}, "invalid"},
		{"no values", "u", 0, nil, "invalid"},
		{"oversized", "u", 0, []float64{0, 0}, "invalid"}, // group 0 has 1 slot
		{"nan", "u", 0, []float64{math.NaN()}, "domain"},
		{"+inf", "u", 0, []float64{math.Inf(1)}, "domain"},
		{"-inf", "u", 0, []float64{math.Inf(-1)}, "domain"},
		{"above domain", "u", 0, []float64{dom + 1}, "domain"},
		{"below domain", "u", 0, []float64{-dom - 1}, "domain"},
	})
	// Nothing above may have consumed budget or mutated state.
	if len(state.Ledger) != 0 {
		t.Fatalf("rejected ingests consumed budget: %v", state.Ledger)
	}
	for _, n := range state.Reports {
		if n != 0 {
			t.Fatalf("rejected ingests landed: %v", state.Reports)
		}
	}
}

func pmDomain(t *testing.T, eps float64) float64 {
	t.Helper()
	m, err := pm.New(eps)
	if err != nil {
		t.Fatal(err)
	}
	return m.OutputDomain().Hi
}

func TestIngestGroupBindingAndBudget(t *testing.T) {
	state := runIngestTable(t, meanConfig(), []ingestStep{
		{"first report binds u to group 0", "u", 0, []float64{0.1}, "ok"},
		{"cross-group report", "u", 1, []float64{0.1}, "wrong-group"},
		// Group 0 costs ε per report; u's budget is exhausted.
		{"overspend", "u", 0, []float64{0.1}, "budget"},
		// Atomicity: group 2 has 4 slots of ε/4. A fresh user uploading 3
		// then 2 must be rejected on the second entry with nothing recorded.
		{"three of four slots", "v", 2, []float64{0, 0, 0}, "ok"},
		{"partial batch", "v", 2, []float64{0, 0}, "budget"},
		{"final slot", "v", 2, []float64{0}, "ok"},
	})
	if want := []float64{1, 0, 4}; !reflect.DeepEqual(state.Reports, want) {
		t.Fatalf("group reports %v, want %v", state.Reports, want)
	}
	if state.Ledger["u"] != 1 || state.Ledger["v"] != 1 {
		t.Fatalf("ledger %v, want u and v at the cap", state.Ledger)
	}
}

func TestFreqIngestValidation(t *testing.T) {
	state := runIngestTable(t, stream.Config{
		Spec: core.Spec{Task: core.TaskFrequency, Eps: 1, Eps0: 0.5, K: 4},
	}, []ingestStep{
		{"category K", "u", 0, []float64{4}, "domain"},
		{"negative category", "u", 0, []float64{-1}, "domain"},
		{"fractional category", "u", 0, []float64{1.5}, "domain"},
		{"nan category", "u", 0, []float64{math.NaN()}, "domain"},
		{"last category", "u", 0, []float64{3}, "ok"},
	})
	if want := []float64{1, 0}; !reflect.DeepEqual(state.Reports, want) {
		t.Fatalf("group reports %v, want %v", state.Reports, want)
	}
}

func TestRotateTumblingAndSliding(t *testing.T) {
	r := rng.New(1)
	// Tumbling: each epoch estimated on its own.
	c := meanConfig()
	c.ExpectedUsers = 300
	tumb := newMeanTenant(t, c)
	fillTenant(t, tumb, r, 100, -0.5, 0.1)
	snap, err := tumb.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || snap.Live || snap.Result == nil {
		t.Fatalf("snapshot %+v", snap)
	}
	firstReports := snap.Reports
	if firstReports != float64(100*(1+2+4)) {
		t.Fatalf("window reports = %v", firstReports)
	}
	if got := tumb.Cached(); got != snap {
		t.Fatal("rotation did not cache")
	}
	// Second epoch holds fresh users (first epoch's spent their ε).
	for g, grp := range tumb.Groups() {
		mech, _ := pm.New(grp.Eps)
		for i := 0; i < 100; i++ {
			vals := make([]float64, grp.Reports)
			for k := range vals {
				vals[k] = mech.Perturb(r, 0.3)
			}
			if err := tumb.Ingest("e2g"+itoa(g)+"u"+itoa(i), g, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap2, err := tumb.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 2 || snap2.Reports != firstReports {
		t.Fatalf("tumbling window leaked epochs: %+v", snap2)
	}

	// Sliding span 2: the second window covers both epochs.
	c = meanConfig()
	c.ExpectedUsers = 300
	c.Window = stream.WindowConfig{Mode: stream.Sliding, Span: 2}
	slide := newMeanTenant(t, c)
	fillTenant(t, slide, r, 100, -0.5, 0.1)
	if snap, err = slide.Rotate(); err != nil {
		t.Fatal(err)
	}
	one := snap.Reports
	for g, grp := range slide.Groups() {
		mech, _ := pm.New(grp.Eps)
		for i := 0; i < 50; i++ {
			vals := make([]float64, grp.Reports)
			for k := range vals {
				vals[k] = mech.Perturb(r, 0.3)
			}
			if err := slide.Ingest("s2g"+itoa(g)+"u"+itoa(i), g, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap2, err = slide.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if want := one + float64(50*(1+2+4)); snap2.Reports != want {
		t.Fatalf("sliding window reports = %v, want %v", snap2.Reports, want)
	}
	// A third rotation (empty live epoch) drops the first epoch.
	snap3, err := slide.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(50 * (1 + 2 + 4)); snap3.Reports != want {
		t.Fatalf("sliding window did not slide: %v, want %v", snap3.Reports, want)
	}
}

func TestEstimateLiveAndCached(t *testing.T) {
	r := rng.New(2)
	c := meanConfig()
	c.ExpectedUsers = 300
	tn := newMeanTenant(t, c)
	if _, err := tn.Estimate(false); err == nil {
		t.Fatal("cached estimate before any rotation")
	}
	if _, err := tn.Estimate(true); err == nil {
		t.Fatal("live estimate on empty tenant")
	}
	fillTenant(t, tn, r, 120, -0.4, 0)
	live, err := tn.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if !live.Live || live.Result == nil || live.Epoch != 0 {
		t.Fatalf("live snapshot %+v", live)
	}
	if math.Abs(live.Result.Mean-(-0.2)) > 0.35 {
		t.Fatalf("live mean %v implausible", live.Result.Mean)
	}
	var wSum float64
	for _, w := range live.Result.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-9 {
		t.Fatalf("weights sum %v", wSum)
	}
}

func TestEpochClock(t *testing.T) {
	r := rng.New(3)
	c := meanConfig()
	c.ExpectedUsers = 300
	c.Window = stream.WindowConfig{Mode: stream.Tumbling, Epoch: 10 * time.Millisecond}
	tn := newMeanTenant(t, c)
	fillTenant(t, tn, r, 100, -0.5, 0.1)
	tn.Start()
	defer tn.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for tn.Cached() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	snap := tn.Cached()
	if snap == nil {
		t.Fatal("epoch clock produced no cached estimate")
	}
	if snap.Epoch < 1 || snap.Result == nil {
		t.Fatalf("clocked snapshot %+v", snap)
	}
	tn.Stop()
	// Stop is idempotent and Start restarts.
	tn.Stop()
	tn.Start()
	tn.Stop()
}

func TestRegistry(t *testing.T) {
	reg := stream.NewRegistry()
	a, err := reg.Create("alpha", meanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("alpha", meanConfig()); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := reg.Create("bad name!", meanConfig()); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := reg.Create("x", stream.Config{Spec: core.Spec{Task: core.TaskMean, Eps: -1, Eps0: 1}}); err == nil {
		t.Fatal("invalid config accepted")
	}
	b, err := reg.Create("beta", stream.Config{Spec: core.Spec{Task: core.TaskFrequency, Eps: 1, Eps0: 0.5, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Get("alpha"); !ok || got != a {
		t.Fatal("Get(alpha) broken")
	}
	ts := reg.List()
	if len(ts) != 2 || ts[0] != a || ts[1] != b {
		t.Fatalf("List = %v", ts)
	}
	if !reg.Delete("alpha") || reg.Delete("alpha") {
		t.Fatal("Delete semantics broken")
	}
	if _, ok := reg.Get("alpha"); ok {
		t.Fatal("deleted tenant still resolvable")
	}
	reg.Close()
}

func TestCrossTenantIsolation(t *testing.T) {
	r := rng.New(4)
	reg := stream.NewRegistry()
	cfg := meanConfig()
	cfg.ExpectedUsers = 300
	a, _ := reg.Create("a", cfg)
	b, _ := reg.Create("b", cfg)
	fillTenant(t, a, r, 120, -0.8, -0.4)
	fillTenant(t, b, r, 120, 0.4, 0.8)
	// Same user ids were used in both tenants: budgets are independent.
	if a.Accountant().Spent("g0u0") == 0 || b.Accountant().Spent("g0u0") == 0 {
		t.Fatal("budgets not tracked per tenant")
	}
	ea, err := a.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimate(true)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Result.Mean >= 0 || eb.Result.Mean <= 0 {
		t.Fatalf("tenant estimates bled into each other: a=%v b=%v", ea.Result.Mean, eb.Result.Mean)
	}
	// Deleting one tenant leaves the other fully functional.
	reg.Delete("a")
	if _, err := b.Estimate(true); err != nil {
		t.Fatal(err)
	}
}

// A freq tenant end to end: k-RR perturbed categories in, frequency
// estimate out.
func TestFreqTenantEndToEnd(t *testing.T) {
	r := rng.New(6)
	tn, err := stream.NewTenant("f", stream.Config{
		Spec: core.NewSpec(core.FrequencyTask(4), core.WithBudget(2, 1),
			core.WithScheme(core.SchemeEMFStar)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, grp := range tn.Groups() {
		mech := krr.MustNew(grp.Eps, 4)
		for i := 0; i < 400; i++ {
			cat := 0 // heavily skewed truth
			if i%4 == 3 {
				cat = 1 + r.IntN(3)
			}
			vals := make([]float64, grp.Reports)
			for k := range vals {
				vals[k] = float64(mech.PerturbCat(r, cat))
			}
			if err := tn.Ingest("g"+itoa(g)+"u"+itoa(i), g, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, err := tn.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Result == nil || len(snap.Result.Freqs) != 4 {
		t.Fatalf("freq snapshot %+v", snap)
	}
	if snap.Result.Freqs[0] < 0.5 {
		t.Fatalf("dominant category estimated at %v", snap.Result.Freqs[0])
	}
}
