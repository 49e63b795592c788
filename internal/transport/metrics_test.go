package transport

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wirebin"
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

// designInventory reads the metric inventory table of DESIGN.md's
// Observability section: family name to type.
func designInventory(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	inv := map[string]string{}
	for _, m := range inventoryRow.FindAllStringSubmatch(string(doc), -1) {
		inv[m[1]] = m[2]
	}
	return inv
}

// inventoryRow matches a row of the inventory table: | `name` | type | …
var inventoryRow = regexp.MustCompile("(?m)^\\| `(dap_[a-z0-9_]+)` \\| ([a-z]+) \\|")

// TestMetricsEndpointCoversAllLayers drives a durable collector through
// JSON reports, binary frames over HTTP and UDP (one of them corrupt),
// a rotation and an error response, then asserts that one scrape parses,
// exposes exactly the families DESIGN.md's inventory documents with their
// documented types, and carries live series from every instrumented layer:
// transport, binary wire, stream, emf, privacy and store.
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	srv, _, c := newDurableServer(t, t.TempDir(), nil, ServerOptions{})
	defer srv.Close()
	lis, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx := context.Background()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := scrapeMetrics(t, ts)
	tenant := map[string]string{"tenant": DefaultTenant}
	delta := func(sc *metrics.Scrape, name string, match map[string]string) float64 {
		return sc.Value(name, match) - before.Value(name, match)
	}
	report2xx := map[string]string{"route": "/v1/tenants/{tenant}/report", "code": "2xx"}
	frameOver := func(wire string) map[string]string { return map[string]string{"transport": wire} }

	sent := feedReports(t, c, 8)
	cfg, err := c.Tenant(DefaultTenant).Config(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Groups[0]
	frame := func(user string) []wirebin.Entry {
		return []wirebin.Entry{{User: user, Group: g.Index, Values: make([]float64, g.Reports)}}
	}
	if _, err := c.Tenant(DefaultTenant).IngestFrames(ctx, 1, [][]wirebin.Entry{frame("frame-http")}); err != nil {
		t.Fatal(err)
	}
	if err := postRawFrame(ctx, c, []byte("DAPF not a frame")); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	uc, err := DialUDP(lis.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	if _, err := uc.Send(frame("frame-udp")); err != nil {
		t.Fatal(err)
	}
	// The datagram lands asynchronously; wait on the monotonic ingested
	// counter (see TestIngestedSurvivesRotation).
	want := float64(sent + 2*g.Reports)
	for deadline := time.Now().Add(10 * time.Second); delta(scrapeMetrics(t, ts), "dap_stream_reports_ingested_total", tenant) < want; {
		if time.Now().After(deadline) {
			t.Fatal("UDP frame never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
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
	// Inventory, both ways: every documented family is exposed with its
	// documented type, and every exposed dap_ family is documented.
	inv := designInventory(t)
	for name, typ := range inv {
		if got, ok := sc.Types[name]; !ok {
			t.Errorf("documented family %s is not exposed", name)
		} else if got != typ {
			t.Errorf("%s is exposed as a %s, documented as a %s", name, got, typ)
		}
	}
	for name := range sc.Types {
		if _, ok := inv[name]; !ok && strings.HasPrefix(name, "dap_") {
			t.Errorf("exposed family %s is not in DESIGN.md's inventory", name)
		}
	}

	// Transport: per-route counters moved, the 4xx registered, latency
	// histograms populated.
	if got := delta(sc, "dap_http_requests_total", report2xx); got < 8 {
		t.Errorf("report route 2xx advanced by %v, want >= 8", got)
	}
	if got := sc.Value("dap_http_requests_total", map[string]string{"route": "/v1/tenants/{tenant}", "code": "4xx"}); got < 1 {
		t.Errorf("4xx counter = %v, want >= 1", got)
	}
	_, okLatency := sc.Get("dap_http_request_duration_seconds_count", nil)
	_, okSize := sc.Get("dap_http_request_size_bytes_count", nil)
	if !okLatency || !okSize {
		t.Error("request latency/size histograms missing")
	}
	// Binary wire: a frame decoded over each transport, the corrupt one
	// rejected, the datagram counted and its sequence tracked.
	for _, m := range []struct {
		name  string
		match map[string]string
	}{
		{"dap_frames_decoded_total", frameOver("http")},
		{"dap_frames_decoded_total", frameOver("udp")},
		{"dap_frames_rejected_total", frameOver("http")},
		{"dap_udp_datagrams_total", nil},
	} {
		if got := delta(sc, m.name, m.match); got < 1 {
			t.Errorf("%s%v advanced by %v, want >= 1", m.name, m.match, got)
		}
	}
	if got := sc.Value("dap_udp_last_seq", nil); got < 1 {
		t.Errorf("udp last seq = %v, want >= 1", got)
	}
	// Stream: every accepted value counted.
	if got := delta(sc, "dap_stream_reports_ingested_total", tenant); got < want {
		t.Errorf("ingested counter advanced by %v, want >= %v", got, want)
	}
	if got := sc.Value("dap_stream_epoch_rotations_total", tenant); got < 1 {
		t.Errorf("rotations = %v, want >= 1", got)
	}
	if lag := sc.Value("dap_stream_epoch_lag_seconds", tenant); lag < 0 {
		t.Errorf("epoch lag = %v after a rotation, want >= 0", lag)
	}
	// EMF: the rotation estimated the window through the solver.
	if got := delta(sc, "dap_emf_runs_total", nil); got < 1 {
		t.Errorf("emf runs advanced by %v, want >= 1", got)
	}
	if got := delta(sc, "dap_emf_iterations_total", nil); got < 1 {
		t.Errorf("emf iterations advanced by %v, want >= 1", got)
	}
	// Privacy: budget gauges reflect the spend.
	if got := sc.Value("dap_privacy_budget_spent_eps", tenant); got <= 0 {
		t.Errorf("budget spent = %v, want > 0", got)
	}
	if got := sc.Value("dap_privacy_budget_cap_eps", tenant); got != 1 {
		t.Errorf("budget cap = %v, want 1", got)
	}
	if got := sc.Value("dap_privacy_reporters", tenant); got < 10 {
		t.Errorf("reporters = %v, want >= 10", got)
	}
	// Store: WAL appends and level gauges, healthy and recovered.
	if got := delta(sc, "dap_wal_appends_total", nil); got < 1 {
		t.Errorf("wal appends advanced by %v, want >= 1", got)
	}
	if got := sc.Value("dap_wal_segments", nil); got < 1 {
		t.Errorf("wal segments = %v, want >= 1", got)
	}
	if got := sc.Value("dap_store_degraded", nil); got != 0 {
		t.Errorf("degraded = %v on a healthy store, want 0", got)
	}
	if got := sc.Value("dap_collector_recovering", nil); got != 0 {
		t.Errorf("recovering = %v after boot, want 0", got)
	}
}

// TestIngestedSurvivesRotation is the regression test for the delivery-
// confirmation signal: the status route's window report totals reset when an
// epoch seals, so a poller using them can watch a confirmed delivery
// vanish mid-wait. The monotonic dap_stream_reports_ingested_total —
// what daploadgen polls — must keep every accepted report across a
// rotation.
func TestIngestedSurvivesRotation(t *testing.T) {
	srv, _, c := newDurableServer(t, t.TempDir(), nil, ServerOptions{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	client := c.Tenant(DefaultTenant)
	ingestedTotal := func() float64 {
		return scrapeMetrics(t, ts).Value("dap_stream_reports_ingested_total", map[string]string{"tenant": DefaultTenant})
	}
	windowTotal := func() int {
		st, err := client.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range st.GroupReports {
			total += n
		}
		return total
	}

	start := ingestedTotal()
	sent := feedReports(t, c, 8)
	before := ingestedTotal()
	if before-start < float64(sent) {
		t.Fatalf("ingested metric advanced by %g, below the %d reports sent", before-start, sent)
	}
	if total := windowTotal(); total < sent {
		t.Fatalf("window totals %d below the %d reports sent pre-rotation", total, sent)
	}

	// Two rotations age the reports out of the window entirely: the first
	// seals them, the second replaces them with an empty epoch. The
	// second may answer 409 — an empty window cannot estimate — but the
	// seal it reports still happened, which is all this test needs.
	if _, err := client.Rotate(ctx); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	_, _ = client.Rotate(ctx)

	// The window totals forget the delivery; the monotonic metric must not.
	if total := windowTotal(); total >= sent {
		t.Fatalf("window totals %d still cover the %d reports sent; rotation did not reset them (precondition of the regression)", total, sent)
	}
	if after := ingestedTotal(); after < before {
		t.Fatalf("ingested metric dropped across rotation: %g → %g", before, after)
	}
}

// TestMetricsScrapeWhileIngesting hammers /metrics concurrently with
// ingest traffic — the scrape path reads the same counters, vec tables
// and gauges the hot path writes, so this is the -race coverage for the
// whole registry.
func TestMetricsScrapeWhileIngesting(t *testing.T) {
	srv, err := NewServerOpts(durableServerSpec(), ServerOptions{})
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
	srv, err := NewServerOpts(durableServerSpec(), ServerOptions{Store: st, AsyncRecover: true})
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
		srv, err := NewServerOpts(durableServerSpec(), ServerOptions{Pprof: on})
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
