package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wirebin"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServerOpts(core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar)), ServerOptions{})
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
		// An honest round: join, perturb locally once per report slot
		// with the group's budget, upload.
		j, err := c.Tenant(DefaultTenant).Join(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mech, err := pm.New(j.Group.Eps)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, j.Group.Reports)
		for k := range vals {
			vals[k] = mech.Perturb(r, v)
		}
		if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
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

func TestServerRejectsBadParams(t *testing.T) {
	bad := core.Spec{Task: core.TaskMean, Eps: -1, Eps0: 1}
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

// TestReportRejectsOverlongUserID: JSON carries ids of any length, but a
// WAL frame carries at most wirebin.MaxUserLen bytes, so a longer id is
// rejected with a 4xx before anything is bound or charged — on /report
// and as a rejected entry of /ingest alike.
func TestReportRejectsOverlongUserID(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	long := strings.Repeat("u", wirebin.MaxUserLen+1)
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/default/report", "application/json",
		strings.NewReader(`{"user":"`+long+`","group":0,"values":[0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("%d-byte user id on /report → HTTP %d, want 4xx", len(long), resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/tenants/default/ingest", "application/json",
		strings.NewReader(`{"reports":[{"user":"`+long+`","group":0,"values":[0.1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || out.Accepted != 0 || out.Rejected != 1 {
		t.Fatalf("%d-byte user id on /ingest → %+v (%v), want one rejected entry", len(long), out, err)
	}
	tn, _ := srv.Registry().Get(DefaultTenant)
	if got := tn.Accountant().Spent(long); got != 0 {
		t.Fatalf("overlong id charged %g", got)
	}
	if _, ok := tn.Accountant().Bindings()[long]; ok {
		t.Fatal("overlong id was bound")
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
	srv, err := NewServerOpts(durableServerSpec(), ServerOptions{MaxIngestBytes: 512})
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

// TestConfigResponsePinned pins the config route's body for a full serve
// section and a frequency tenant: the flat fields are read off the
// tenant's effective spec and must keep their wire form.
func TestConfigResponsePinned(t *testing.T) {
	reg := stream.NewRegistry()
	for _, tc := range []struct {
		sp   core.Spec
		want string
	}{
		{core.Spec{Task: core.TaskMean, Eps: 1, Eps0: 0.25, Serve: &core.ServeSpec{
			ExpectedUsers: 2000, Shards: 2, Window: "SLIDING", Span: 3, EpochMs: 250,
			Buckets: 13, Wire: "bin", UDPAddr: "127.0.0.1:9200"}},
			`{"eps":1,"eps0":0.25,"scheme":"CEMF*","groups":[{"index":0,"eps":1,"reports":1},{"index":1,"eps":0.5,"reports":2},{"index":2,"eps":0.25,"reports":4}],"kind":"mean","buckets":12,"shards":2,"window_mode":"sliding","window_span":3,"epoch_ms":250,"wire":"bin","spec":{"task":"mean","mechanism":"pm","scheme":"CEMF*","weights":"paper","eps":1,"eps0":0.25,"serve":{"buckets":12,"expected_users":2000,"shards":2,"window":"sliding","span":3,"epoch_ms":250,"wire":"bin","udp_addr":"127.0.0.1:9200"}}}`},
		{core.Spec{Task: core.TaskFrequency, Eps: 1, Eps0: 0.5, K: 3,
			Serve: &core.ServeSpec{Buckets: 13, Window: "fixed", Span: 4}},
			`{"eps":1,"eps0":0.5,"scheme":"CEMF*","groups":[{"index":0,"eps":1,"reports":1},{"index":1,"eps":0.5,"reports":2}],"kind":"frequency","k":3,"shards":8,"window_mode":"tumbling","window_span":1,"spec":{"task":"frequency","mechanism":"krr","scheme":"CEMF*","weights":"paper","eps":1,"eps0":0.5,"k":3,"serve":{"expected_users":4096,"shards":8,"window":"tumbling","span":1}}}`},
	} {
		tn, err := reg.CreateSpec(fmt.Sprintf("t%d", len(reg.List())), tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(configResponse(tn))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("config response\n got %s\nwant %s", got, tc.want)
		}
	}
	reg.Close()
}
