package transport

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServerOpts(stream.Config{Spec: core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar))}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

func TestConfigEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	cfg, err := c.Tenant(DefaultTenant).Config(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Eps != 1 || cfg.Eps0 != 0.25 {
		t.Fatalf("config budgets %v/%v", cfg.Eps, cfg.Eps0)
	}
	if len(cfg.Groups) != 3 {
		t.Fatalf("groups = %d", len(cfg.Groups))
	}
	if cfg.Scheme != "EMF*" {
		t.Fatalf("scheme = %q", cfg.Scheme)
	}
	for i, g := range cfg.Groups {
		if g.Reports != 1<<i {
			t.Fatalf("group %d reports %d", i, g.Reports)
		}
	}
}

func TestJoinRoundRobin(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	seen := map[int]int{}
	users := map[string]bool{}
	for i := 0; i < 9; i++ {
		j, err := c.Tenant(DefaultTenant).Join(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[j.Group.Index]++
		if users[j.User] {
			t.Fatalf("duplicate user id %s", j.User)
		}
		users[j.User] = true
	}
	for g := 0; g < 3; g++ {
		if seen[g] != 3 {
			t.Fatalf("group %d got %d joins", g, seen[g])
		}
	}
}

func TestReportValidation(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	j, err := c.Tenant(DefaultTenant).Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, 99, []float64{0}); err == nil {
		t.Fatal("bad group accepted")
	}
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, nil); err == nil {
		t.Fatal("empty values accepted")
	}
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, []float64{1e9}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	too := make([]float64, j.Group.Reports+1)
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, too); err == nil {
		t.Fatal("oversized report accepted")
	}
}

func TestBudgetEnforcement(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	j, err := c.Tenant(DefaultTenant).Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, j.Group.Reports)
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
		t.Fatal(err)
	}
	// The budget is now exhausted: further reports must be rejected.
	err = c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, []float64{0})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget not enforced: %v", err)
	}
}

func TestWrongGroupRejected(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	j, err := c.Tenant(DefaultTenant).Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	other := (j.Group.Index + 1) % 3
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, other, []float64{0}); err == nil {
		t.Fatal("cross-group report accepted")
	}
}

func TestEndToEndEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end HTTP round is slow")
	}
	_, c := newTestServer(t)
	ctx := context.Background()
	r := rng.New(1)
	const n = 3000
	var sum float64
	for i := 0; i < n; i++ {
		v := rng.Uniform(r, -0.5, 0.1)
		sum += v
		if _, err := c.Tenant(DefaultTenant).SubmitValue(ctx, r, v); err != nil {
			t.Fatal(err)
		}
	}
	trueMean := sum / n
	st, err := c.Tenant(DefaultTenant).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != n {
		t.Fatalf("status users = %d", st.Users)
	}
	est, err := c.Tenant(DefaultTenant).Estimate(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// EMF* imposes the probed γ̂ on every group even without an attack; at
	// n = 3000 the false-positive γ̂ (~0.06) removes that much mass at the
	// probed side, an inherent bias of ~0.1–0.3 depending on the stream
	// (6/20 seeds exceed 0.15). The bound matches TestFacadeEndToEnd's;
	// the γ̂ assertion below keeps the test sensitive to gross EM
	// regressions that the widened mean bound alone would miss.
	if math.Abs(est.Mean-trueMean) > 0.35 {
		t.Fatalf("estimate %v, want ~%v", est.Mean, trueMean)
	}
	if est.Gamma < 0 || est.Gamma > 0.25 {
		t.Fatalf("no-attack false-positive γ̂ = %v, want within [0, 0.25]", est.Gamma)
	}
	var wSum float64
	for _, w := range est.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-9 {
		t.Fatalf("weights sum %v", wSum)
	}
}

func TestEstimateFailsOnEmptyCollection(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Tenant(DefaultTenant).Estimate(context.Background(), ""); err == nil {
		t.Fatal("estimate on empty collection should fail")
	}
}

func TestSubmitPoisonClamps(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	vals := make([]float64, 64) // longer than any group's slot count
	j, err := c.Tenant(DefaultTenant).SubmitPoison(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	if j.Group.Reports > 64 {
		t.Fatal("unexpected group layout")
	}
}

func TestServerRejectsBadParams(t *testing.T) {
	bad := stream.Config{Spec: core.Spec{Task: core.TaskMean, Eps: -1, Eps0: 1}}
	if _, err := NewServerOpts(bad, ServerOptions{}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestReportRejectsNaNAndInf(t *testing.T) {
	// NaN/Inf cannot travel in JSON numbers; they surface as either a JSON
	// decode error or a domain rejection — in both cases HTTP 4xx and no
	// state change. Exercise the wire with raw bodies.
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, body := range []string{
		`{"user":"u0","group":0,"values":[NaN]}`,
		`{"user":"u0","group":0,"values":[1e999]}`,
		`{"user":"u0","group":0,"values":["Inf"]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/tenants/default/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("body %s → HTTP %d", body, resp.StatusCode)
		}
	}
	st, err := NewClient(ts.URL, ts.Client()).Tenant(DefaultTenant).Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range st.GroupReports {
		if n != 0 {
			t.Fatalf("malformed reports landed: %v", st.GroupReports)
		}
	}
}

func TestTenantCRUDAndRoutes(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	// The default tenant is listed.
	ls, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Tenants) != 1 || ls.Tenants[0].Name != DefaultTenant {
		t.Fatalf("tenants = %+v", ls.Tenants)
	}
	// Create a frequency tenant and drive it through its scoped routes.
	clicks := core.Spec{Task: core.TaskFrequency, Eps: 2, Eps0: 1, K: 3, Scheme: "emfstar"}
	created, err := c.CreateTenantSpec(ctx, "clicks", clicks)
	if err != nil {
		t.Fatal(err)
	}
	if created.Kind != "frequency" || created.Spec.K != 3 {
		t.Fatalf("created = %+v", created)
	}
	if _, err := c.CreateTenantSpec(ctx, "clicks", clicks); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, err := c.CreateTenantSpec(ctx, "bad", core.Spec{Task: "nope", Eps: 1, Eps0: 1}); err == nil {
		t.Fatal("bad task accepted")
	}
	tc := c.Tenant("clicks")
	cfg, err := tc.Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != "frequency" || cfg.K != 3 || len(cfg.Groups) != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	// Categories flow through join/report; the default tenant is untouched.
	for i := 0; i < 200; i++ {
		j, err := tc.Join(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, j.Group.Reports)
		for k := range vals {
			vals[k] = float64(i % 3 / 2) // mostly category 0
		}
		if err := tc.Report(ctx, j.User, j.Group.Index, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.Report(ctx, "u000000", 0, []float64{7}); err == nil {
		t.Fatal("out-of-range category accepted")
	}
	est, err := tc.Estimate(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if est.Kind != "frequency" || len(est.Freqs) != 3 {
		t.Fatalf("estimate = %+v", est)
	}
	if st, err := c.Tenant(DefaultTenant).Status(ctx); err != nil || st.Users != 0 {
		t.Fatalf("default tenant leaked state: %+v, %v", st, err)
	}
	// Deletion: the scoped routes disappear; default cannot be deleted.
	if err := c.DeleteTenant(ctx, "clicks"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Status(ctx); err == nil {
		t.Fatal("deleted tenant still served")
	}
	if err := c.DeleteTenant(ctx, DefaultTenant); err == nil {
		t.Fatal("default tenant deleted")
	}
}

func TestBatchIngestAndRotate(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	r := rng.New(8)
	cfg, err := c.Tenant(DefaultTenant).Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var batch []ReportRequest
	for i := 0; i < 600; i++ {
		g := cfg.Groups[i%len(cfg.Groups)]
		vals := make([]float64, g.Reports)
		for k := range vals {
			vals[k] = rng.Uniform(r, -0.2, 0.2) // in-domain for every group
		}
		batch = append(batch, ReportRequest{
			User: "b" + string(rune('a'+i%26)) + itoa(i), Group: g.Index, Values: vals,
		})
	}
	// Poison one entry so per-entry isolation is visible.
	batch[0].Values = []float64{1e9}
	res, err := c.Tenant(DefaultTenant).Ingest(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || len(res.Errors) == 0 {
		t.Fatalf("ingest = %+v", res)
	}
	est, err := c.Tenant(DefaultTenant).Rotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if est.Epoch != 1 || est.Reports != float64(res.Accepted) {
		t.Fatalf("rotate = %+v (accepted %d)", est, res.Accepted)
	}
	// The cached per-epoch estimate now serves reads.
	got, err := c.Tenant(DefaultTenant).Estimate(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || got.Live {
		t.Fatalf("estimate after rotate = %+v", got)
	}
}

// TestAddressingAndCreateRejections pins the two edges of the wire
// surface: a tenant is addressed by the {tenant} path segment and nothing
// else (the tenant-less mirror routes answer 404), and tenant creation
// takes a bounded body holding a spec whose serve section and group count
// are bounded (the server keeps answering after each rejection).
func TestAddressingAndCreateRejections(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{MaxIngestBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	report := `{"user":"u0","group":0,"values":[0]}`
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"tenant-less config", "GET", "/v1/config", "", 404},
		{"tenant-less join", "POST", "/v1/join", "", 404},
		{"tenant-less report", "POST", "/v1/report", report, 404},
		{"tenant-less ingest", "POST", "/v1/ingest", `{"reports":[` + report + `]}`, 404},
		{"tenant-less status", "GET", "/v1/status", "", 404},
		{"tenant-less estimate", "GET", "/v1/estimate", "", 404},
		{"tenant-less rotate", "POST", "/v1/rotate", "", 404},
		{"scoped report", "POST", "/v1/tenants/default/report", report, 200},
		{"create without spec", "POST", "/v1/tenants", `{"name":"flat","kind":"mean","eps":1,"eps0":0.5}`, 400},
		{"create over the body limit", "POST", "/v1/tenants",
			`{"name":"big","spec":{"task":"mean","eps":1},"pad":"` + strings.Repeat("x", 600) + `"}`, 413},
		{"create over the shard bound", "POST", "/v1/tenants",
			`{"name":"wide","spec":{"task":"mean","eps":1,"serve":{"shards":100000000,"buckets":100000000}}}`, 400},
		{"create over the group bound", "POST", "/v1/tenants",
			`{"name":"deep","spec":{"task":"mean","eps":1,"eps0":1e-12}}`, 400},
		{"create", "POST", "/v1/tenants", `{"name":"ok","spec":{"task":"mean","eps":1}}`, 201},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %s %s → HTTP %d, want %d", tc.name, tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	ls, err := NewClient(ts.URL, ts.Client()).Tenants(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Tenants) != 2 {
		t.Fatalf("rejected creations left tenants behind: %+v", ls.Tenants)
	}
}

func itoa(i int) string {
	return fmt.Sprintf("%d", i)
}
