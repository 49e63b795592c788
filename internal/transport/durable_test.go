package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/stream"
)

// durableServerSpec keeps warm start off so recovered estimates are a pure
// function of the window histograms (the bit-identity precondition).
func durableServerSpec() core.Spec {
	return core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Scheme: core.SchemeEMF.String(), EMFMaxIter: 40,
		Serve: &core.ServeSpec{Buckets: 16, Shards: 4, Window: "tumbling", Span: 2},
	}
}

// newDurableServer boots a durable collector over dir (through flaky when
// given) and serves it over httptest.
func newDurableServer(t *testing.T, dir string, flaky *store.Flaky, opts ServerOptions) (*Server, *store.Store, *Client) {
	t.Helper()
	sopts := store.Options{Sync: store.SyncOS}
	if flaky != nil {
		sopts.FS = flaky
	}
	st, err := store.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	srv, err := NewServerOpts(mustConfig(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, st, NewClient(ts.URL, ts.Client())
}

// feedReports joins n users and uploads fixed (deterministic) values.
func feedReports(t *testing.T, c *Client, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		j, err := c.Tenant(DefaultTenant).Join(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, j.Group.Reports)
		for k := range vals {
			vals[k] = 0.1 * float64(i%7)
		}
		if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableServerCrashRestart is the transport-level kill-and-restart
// test: reports land over HTTP, the process "dies" without any shutdown
// courtesy, and a fresh server over the same directory serves the exact
// same estimate the dead one had cached.
func TestDurableServerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv, st, c := newDurableServer(t, dir, nil, ServerOptions{})
	feedReports(t, c, 12)
	sealed, err := c.Tenant(DefaultTenant).Rotate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	feedReports(t, c, 5) // live-epoch tail, recovered purely from WAL replay
	// Kill: no srv.Close, no st.Close — nothing beyond the acked appends.
	_ = srv
	_ = st

	srv2, _, c2 := newDurableServer(t, dir, nil, ServerOptions{})
	defer srv2.Close()
	got, err := c2.Tenant(DefaultTenant).Estimate(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Mean) != math.Float64bits(sealed.Mean) {
		t.Fatalf("recovered mean %v != pre-crash %v", got.Mean, sealed.Mean)
	}
	for i := range sealed.GroupMeans {
		if math.Float64bits(got.GroupMeans[i]) != math.Float64bits(sealed.GroupMeans[i]) {
			t.Fatalf("group %d mean diverged: %v vs %v", i, got.GroupMeans[i], sealed.GroupMeans[i])
		}
	}
	// The live tail survived too: rotating now seals those 5 reports.
	st2, err := c2.Tenant(DefaultTenant).Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Users != 17 {
		t.Fatalf("recovered users = %d, want 17", st2.Users)
	}

	admin, err := c2.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if admin.Recovering || !admin.Durable || admin.Store == nil || admin.Recovery == nil {
		t.Fatalf("admin status incomplete: %+v", admin)
	}
	if !admin.Store.Healthy {
		t.Fatalf("store unhealthy after recovery: %+v", admin.Store)
	}
	if admin.Recovery.SpendAfter < admin.Recovery.SpendBefore {
		t.Fatalf("spend decreased across crash: %v -> %v",
			admin.Recovery.SpendBefore, admin.Recovery.SpendAfter)
	}
	if admin.Recovery.SpendAfter <= 0 {
		t.Fatalf("no spend recovered: %+v", admin.Recovery)
	}
}

// TestServeWireRoundTrips pins that the advisory serve fields, which have
// no engine counterpart, survive the engine: the config route advertises
// the spec's wire, the status spec re-creates an identical tenant, and
// both still hold after a crash and stream.Recover.
func TestServeWireRoundTrips(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sp := durableServerSpec()
	sp.Serve.Wire, sp.Serve.UDPAddr = "bin", "127.0.0.1:9200"

	statusSpec := func(c *Client, name string) core.Spec {
		t.Helper()
		cfg, err := c.Tenant(name).Config(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Wire != "bin" {
			t.Fatalf("tenant %s advertises wire %q, want bin", name, cfg.Wire)
		}
		ls, err := c.Tenants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range ls.Tenants {
			if ts.Name == name {
				return ts.Spec
			}
		}
		t.Fatalf("tenant %s not listed", name)
		return core.Spec{}
	}

	_, _, c := newDurableServer(t, dir, nil, ServerOptions{})
	if _, err := c.CreateTenantSpec(ctx, "a", sp); err != nil {
		t.Fatal(err)
	}
	served := statusSpec(c, "a")
	if served.Serve.Wire != "bin" || served.Serve.UDPAddr != "127.0.0.1:9200" {
		t.Fatalf("status spec dropped serve routing: %+v", served.Serve)
	}
	if _, err := c.CreateTenantSpec(ctx, "b", served); err != nil {
		t.Fatal(err)
	}
	if again := statusSpec(c, "b"); !reflect.DeepEqual(again, served) {
		t.Fatalf("status spec does not round-trip\n got: %+v\nwant: %+v", again.Serve, served.Serve)
	}

	// Kill (no Close) and recover from the WAL's tenant-create records.
	srv2, _, c2 := newDurableServer(t, dir, nil, ServerOptions{})
	defer srv2.Close()
	for _, name := range []string{"a", "b"} {
		if got := statusSpec(c2, name); !reflect.DeepEqual(got, served) {
			t.Fatalf("tenant %s spec changed across recovery\n got: %+v\nwant: %+v", name, got.Serve, served.Serve)
		}
	}
}

// slowFS delays Load's directory scan until released, holding a durable
// server in its recovering state long enough to observe the 503 gate.
type slowFS struct {
	store.FS
	gate <-chan struct{}
}

func (s slowFS) ReadDir(dir string) ([]string, error) {
	<-s.gate
	return s.FS.ReadDir(dir)
}

// TestAsyncRecoverGate asserts the boot-recovery gate: with AsyncRecover
// every endpoint answers 503 + Retry-After while recovery runs — except
// the admin status, which reports recovering=true — and the gate drops
// once the registry is installed.
func TestAsyncRecoverGate(t *testing.T) {
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

	resp, err := ts.Client().Get(ts.URL + "/v1/tenants/default/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status during recovery = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("recovering 503 missing Retry-After")
	}
	admin, err := c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !admin.Recovering {
		t.Fatal("admin status should report recovering")
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Tenant(DefaultTenant).Status(ctx); err != nil {
		t.Fatalf("status after recovery: %v", err)
	}
}

// TestStoreDownDegradedMode asserts the degraded-store contract: when the
// WAL cannot be written the collector refuses writes with 503 (and refunds
// the charge) but keeps serving reads from the last good epoch; healing
// the filesystem restores write service without a restart.
func TestStoreDownDegradedMode(t *testing.T) {
	flaky := store.NewFlaky(store.OS{})
	srv, _, c := newDurableServer(t, t.TempDir(), flaky, ServerOptions{})
	defer srv.Close()
	ctx := context.Background()

	feedReports(t, c, 9)
	sealed, err := c.Tenant(DefaultTenant).Rotate(ctx)
	if err != nil {
		t.Fatal(err)
	}

	j, err := c.Tenant(DefaultTenant).Join(ctx) // joins are best-effort logged, still served
	if err != nil {
		t.Fatal(err)
	}
	flaky.FailWrites(1, false, true) // persistent write failure

	vals := make([]float64, j.Group.Reports)
	err = c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals)
	if err == nil || !strings.Contains(err.Error(), "store") {
		t.Fatalf("report with store down: %v, want store-down 503", err)
	}
	if _, err := c.Tenant(DefaultTenant).Rotate(ctx); err == nil {
		t.Fatal("rotate with store down should fail")
	}
	got, err := c.Tenant(DefaultTenant).Estimate(ctx, "")
	if err != nil {
		t.Fatalf("read during store outage: %v", err)
	}
	if math.Float64bits(got.Mean) != math.Float64bits(sealed.Mean) {
		t.Fatalf("degraded read diverged: %v vs %v", got.Mean, sealed.Mean)
	}
	admin, err := c.AdminStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if admin.Store == nil || admin.Store.Healthy {
		t.Fatalf("admin should report unhealthy store: %+v", admin.Store)
	}

	flaky.Heal()
	if err := c.Tenant(DefaultTenant).Report(ctx, j.User, j.Group.Index, vals); err != nil {
		t.Fatalf("report after heal: %v", err)
	}
}

// TestIngestBodyLimit asserts oversized ingest bodies fail fast with 413.
func TestIngestBodyLimit(t *testing.T) {
	srv, err := NewServerOpts(mustConfig(t), ServerOptions{MaxIngestBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := IngestRequest{}
	for i := 0; i < 200; i++ {
		big.Reports = append(big.Reports, ReportRequest{User: fmt.Sprintf("user-%d", i), Group: 0, Values: []float64{0.5}})
	}
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(big); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/default/ingest", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413", resp.StatusCode)
	}

	// A small request on the same server still works.
	c := NewClient(ts.URL, ts.Client())
	j, err := c.Tenant(DefaultTenant).Join(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, j.Group.Reports)
	if err := c.Tenant(DefaultTenant).Report(context.Background(), j.User, j.Group.Index, vals); err != nil {
		t.Fatal(err)
	}
}

func mustConfig(t *testing.T) stream.Config {
	t.Helper()
	cfg, err := stream.ConfigFromSpec(durableServerSpec())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestClientRetry asserts the retry loop: 5xx responses and their
// Retry-After are honoured, request bodies rewind across attempts, the
// retry counter advances, and 4xx rejections never retry.
func TestClientRetry(t *testing.T) {
	var calls atomic.Int64
	var lastBody atomic.Pointer[string]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		s := buf.String()
		lastBody.Store(&s)
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"accepted":1}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ts.Client())
	c.SetRetry(3, time.Second)
	var out ReportResponse
	if err := c.post(context.Background(), "/echo", ReportRequest{User: "u1"}, &out); err != nil {
		t.Fatalf("retried post: %v", err)
	}
	if out.Accepted != 1 {
		t.Fatalf("accepted = %d", out.Accepted)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2", got)
	}
	if b := lastBody.Load(); b == nil || !strings.Contains(*b, "u1") {
		t.Fatalf("final attempt body lost: %v", lastBody.Load())
	}
}

func TestClientNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"nope"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ts.Client())
	c.SetRetry(5, time.Second)
	if err := c.get(context.Background(), "/x", nil); err == nil {
		t.Fatal("4xx should surface as error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("Retries() = %d, want 0", got)
	}
}

// TestClientRetryGivesUp asserts the attempt budget is finite and the last
// error surfaces.
func TestClientRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := NewClient(ts.URL, ts.Client())
	c.SetRetry(2, time.Second)
	err := c.get(context.Background(), "/x", nil)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want terminal 503 error, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", got)
	}
}

// TestBackoffDeepAttemptsClamped: the exponential shift overflows
// time.Duration past attempt ~37, and a huge server Retry-After can
// overflow the seconds multiply; both must clamp to retryMaxWait instead
// of panicking on a non-positive jitter bound.
func TestBackoffDeepAttemptsClamped(t *testing.T) {
	c := NewClient("http://unused", nil)
	c.SetRetry(1, 10*time.Millisecond)
	ctx := context.Background()
	for _, attempt := range []int{0, 1, 10, 37, 38, 40, 63, 64, 100, 1 << 20} {
		start := time.Now()
		if !c.backoff(ctx, attempt, "") {
			t.Fatalf("backoff(attempt=%d) aborted without ctx cancellation", attempt)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("backoff(attempt=%d) slept %v, want ≈ retryMaxWait", attempt, d)
		}
	}
	// 1e10 seconds overflows time.Duration when multiplied out.
	if !c.backoff(ctx, 0, "10000000000") {
		t.Fatal("backoff with huge Retry-After aborted without ctx cancellation")
	}
}
