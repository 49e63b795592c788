package transport

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// scrapeMetrics fetches and parses GET /metrics, asserting the payload
// is valid exposition with the right content type.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *metrics.Scrape {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed to parse: %v", err)
	}
	return sc
}

// TestMetricsEndpointCoversAllLayers drives a durable collector through
// ingest, rotation and an error response, then asserts one scrape carries
// live series from every instrumented layer: transport, stream, emf,
// privacy and store.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	srv, _, c := newDurableServer(t, t.TempDir(), nil, ServerOptions{})
	defer srv.Close()
	ctx := context.Background()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := scrapeMetrics(t, ts)
	ingBefore := before.Value("dap_stream_reports_ingested_total", map[string]string{"tenant": "default"})
	okBefore := before.Value("dap_http_requests_total", map[string]string{"route": "/v1/tenants/{tenant}/report", "code": "2xx"})

	feedReports(t, c, 8)
	if _, err := c.Tenant(DefaultTenant).Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	// One 4xx: unknown tenant.
	resp, err := ts.Client().Get(ts.URL + "/v1/tenants/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}

	sc := scrapeMetrics(t, ts)
	// Transport: per-route counters moved, the 4xx registered, latency
	// histograms populated.
	if got := sc.Value("dap_http_requests_total", map[string]string{"route": "/v1/tenants/{tenant}/report", "code": "2xx"}); got-okBefore < 8 {
		t.Errorf("report route 2xx advanced by %v, want >= 8", got-okBefore)
	}
	if got := sc.Value("dap_http_requests_total", map[string]string{"route": "/v1/tenants/{tenant}", "code": "4xx"}); got < 1 {
		t.Errorf("4xx counter = %v, want >= 1", got)
	}
	if !sc.Has("dap_http_request_duration_seconds") || !sc.Has("dap_http_request_size_bytes") {
		t.Error("request latency/size histograms missing")
	}
	// Stream: every accepted value counted; reports arrive one value per
	// group report so the delta is at least the 8 sessions.
	if got := sc.Value("dap_stream_reports_ingested_total", map[string]string{"tenant": "default"}); got-ingBefore < 8 {
		t.Errorf("ingested counter advanced by %v, want >= 8", got-ingBefore)
	}
	if got := sc.Value("dap_stream_epoch_rotations_total", map[string]string{"tenant": "default"}); got < 1 {
		t.Errorf("rotations = %v, want >= 1", got)
	}
	if lag := sc.Value("dap_stream_epoch_lag_seconds", map[string]string{"tenant": "default"}); lag < 0 {
		t.Errorf("epoch lag = %v after a rotation, want >= 0", lag)
	}
	// EMF: the rotation estimated the window through the solver.
	if got := sc.Value("dap_emf_runs_total", nil); got < 1 {
		t.Errorf("emf runs = %v, want >= 1", got)
	}
	if got := sc.Value("dap_emf_iterations_total", nil); got < 1 {
		t.Errorf("emf iterations = %v, want >= 1", got)
	}
	// Privacy: budget gauges reflect the spend.
	if got := sc.Value("dap_privacy_budget_spent_eps", map[string]string{"tenant": "default"}); got <= 0 {
		t.Errorf("budget spent = %v, want > 0", got)
	}
	if got := sc.Value("dap_privacy_budget_cap_eps", map[string]string{"tenant": "default"}); got != 1 {
		t.Errorf("budget cap = %v, want 1", got)
	}
	if got := sc.Value("dap_privacy_reporters", map[string]string{"tenant": "default"}); got < 8 {
		t.Errorf("reporters = %v, want >= 8", got)
	}
	// Store: WAL appends and level gauges.
	if got := sc.Value("dap_wal_appends_total", nil); got < 1 {
		t.Errorf("wal appends = %v, want >= 1", got)
	}
	if got := sc.Value("dap_wal_segments", nil); got < 1 {
		t.Errorf("wal segments = %v, want >= 1", got)
	}
	if got := sc.Value("dap_store_degraded", nil); got != 0 {
		t.Errorf("degraded = %v on a healthy store, want 0", got)
	}
}

// TestMetricsScrapeWhileIngesting hammers /metrics concurrently with
// ingest traffic — the scrape path reads the same counters, vec tables
// and gauges the hot path writes, so this is the -race coverage for the
// whole registry.
func TestMetricsScrapeWhileIngesting(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, err := c.Tenant(DefaultTenant).Join(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				vals := make([]float64, j.Group.Reports)
				if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			scrapeMetrics(t, ts)
		}
	}()
	wg.Wait()
}

// TestMetricsAgreeWithAdminDuringRecovery asserts the observability
// plane stays up behind the AsyncRecover 503 gate and that the
// dap_collector_recovering gauge tracks the admin JSON through the
// recovering -> serving transition.
func TestMetricsAgreeWithAdminDuringRecovery(t *testing.T) {
	gate := make(chan struct{})
	st, err := store.Open(t.TempDir(), store.Options{
		Sync: store.SyncOS,
		FS:   slowFS{FS: store.OS{}, gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{Store: st, AsyncRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	sc := scrapeMetrics(t, ts) // must bypass the recovery gate
	admin, err := c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !admin.Recovering {
		t.Fatal("admin should report recovering")
	}
	if got := sc.Value("dap_collector_recovering", nil); got != 1 {
		t.Fatalf("recovering gauge = %v while admin reports recovering, want 1", got)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(time.Millisecond)
	}
	sc = scrapeMetrics(t, ts)
	admin, err = c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if admin.Recovering {
		t.Fatal("admin still reports recovering")
	}
	if got := sc.Value("dap_collector_recovering", nil); got != 0 {
		t.Fatalf("recovering gauge = %v after recovery, want 0", got)
	}
	if got := sc.Value("dap_store_recovery_duration_seconds", nil); got <= 0 {
		t.Fatalf("recovery duration gauge = %v, want > 0", got)
	}
}

// TestMetricsAgreeWithAdminWhenDegraded asserts the degraded flag is
// told identically by both scrape sources while the store is down and
// after it heals.
func TestMetricsAgreeWithAdminWhenDegraded(t *testing.T) {
	flaky := store.NewFlaky(store.OS{})
	srv, _, c := newDurableServer(t, t.TempDir(), flaky, ServerOptions{})
	defer srv.Close()
	ctx := context.Background()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	feedReports(t, c, 4)
	j, err := c.Tenant(DefaultTenant).Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	flaky.FailWrites(1, false, true)
	vals := make([]float64, j.Group.Reports)
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err == nil {
		t.Fatal("report with store down should fail")
	}

	sc := scrapeMetrics(t, ts)
	admin, err := c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !admin.Degraded {
		t.Fatalf("admin should report degraded: %+v", admin)
	}
	if got := sc.Value("dap_store_degraded", nil); got != 1 {
		t.Fatalf("degraded gauge = %v while admin reports degraded, want 1", got)
	}
	if got := sc.Value("dap_wal_append_failures_total", nil); got < 1 {
		t.Fatalf("append failures = %v, want >= 1", got)
	}

	flaky.Heal()
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
		t.Fatalf("report after heal: %v", err)
	}
	sc = scrapeMetrics(t, ts)
	admin, err = c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if admin.Degraded {
		t.Fatal("admin still reports degraded after heal")
	}
	if got := sc.Value("dap_store_degraded", nil); got != 0 {
		t.Fatalf("degraded gauge = %v after heal, want 0", got)
	}
}

// TestPprofMount asserts /debug/pprof is absent by default and served
// when ServerOptions.Pprof is set.
func TestPprofMount(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv, err := NewServerOpts(mustConfig(t), ServerOptions{Pprof: on})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		srv.Close()
		if on {
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
				t.Fatalf("pprof enabled: status %d, body %q", resp.StatusCode, body)
			}
		} else if resp.StatusCode == http.StatusOK {
			t.Fatal("pprof served without the option")
		}
	}
}
