// Command metricscheck is the observability end-to-end gate: it boots a
// durable in-process collector over a real loopback listener, drives
// representative traffic through every instrumented layer (joins,
// reports, a deliberate 4xx, binary frames over HTTP and UDP including a
// guaranteed reject, an epoch rotation, a live estimate), then
// scrapes GET /metrics over HTTP and fails unless
//
//   - the payload parses as Prometheus text exposition (version 0.0.4),
//   - every metric documented in DESIGN.md's Observability inventory is
//     present with its declared type, and
//   - the layer counters moved the way the traffic says they must
//     (2xx and 4xx requests observed, reports ingested, an epoch
//     rotation, a solver run, budget spent, WAL appends, no degraded or
//     recovering state on a healthy boot).
//
// With -addr the tool instead scrapes an already-running collector and
// checks only parse validity plus inventory presence — the traffic-
// dependent value checks need the self-booted workload.
//
// Usage:
//
//	metricscheck                     # self-boot, drive, scrape, verify
//	metricscheck -addr http://localhost:8080
//
// CI runs this as `make metrics-check`; the inventory table below is the
// machine-checked twin of the DESIGN.md listing, so a metric added to
// the code without documentation (or vice versa) fails the gate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

// inventory mirrors DESIGN.md's Observability metric listing: every
// documented family must be exposed with this type.
var inventory = []struct{ name, typ string }{
	// transport
	{"dap_http_requests_total", "counter"},
	{"dap_http_request_duration_seconds", "histogram"},
	{"dap_http_request_size_bytes", "histogram"},
	{"dap_http_inflight_requests", "gauge"},
	{"dap_client_retries_total", "counter"},
	{"dap_collector_recovering", "gauge"},
	{"dap_store_recovery_duration_seconds", "gauge"},
	// binary wire (frames over HTTP and UDP)
	{"dap_frames_decoded_total", "counter"},
	{"dap_frames_rejected_total", "counter"},
	{"dap_frames_decode_seconds", "histogram"},
	{"dap_udp_datagrams_total", "counter"},
	{"dap_udp_datagrams_dropped_total", "counter"},
	{"dap_udp_last_seq", "gauge"},
	// stream
	{"dap_stream_reports_ingested_total", "counter"},
	{"dap_stream_reports_rejected_total", "counter"},
	{"dap_stream_epoch_rotations_total", "counter"},
	{"dap_stream_estimate_duration_seconds", "histogram"},
	{"dap_stream_warm_hits_total", "counter"},
	{"dap_stream_epoch_lag_seconds", "gauge"},
	{"dap_stream_tenants", "gauge"},
	// merge plane (coordinator)
	{"dap_merge_deltas_total", "counter"},
	{"dap_merge_stragglers_total", "counter"},
	{"dap_merge_nodes", "gauge"},
	{"dap_merge_epoch_lag_seconds", "gauge"},
	// privacy
	{"dap_privacy_budget_spent_eps", "gauge"},
	{"dap_privacy_budget_cap_eps", "gauge"},
	{"dap_privacy_budget_remaining_eps", "gauge"},
	{"dap_privacy_reporters", "gauge"},
	// core/emf
	{"dap_emf_runs_total", "counter"},
	{"dap_emf_iterations_total", "counter"},
	{"dap_emf_restarts_total", "counter"},
	{"dap_emf_convergence_failures_total", "counter"},
	{"dap_emf_warm_starts_total", "counter"},
	// store
	{"dap_wal_appends_total", "counter"},
	{"dap_wal_bytes_total", "counter"},
	{"dap_wal_append_failures_total", "counter"},
	{"dap_wal_group_commit_records", "histogram"},
	{"dap_wal_fsync_duration_seconds", "histogram"},
	{"dap_store_snapshots_total", "counter"},
	{"dap_wal_segments", "gauge"},
	{"dap_wal_size_bytes", "gauge"},
	{"dap_store_snapshot_age_seconds", "gauge"},
	{"dap_store_degraded", "gauge"},
}

func main() {
	addr := flag.String("addr", "", "scrape this collector instead of self-booting (inventory + parse checks only)")
	flag.Parse()

	base := *addr
	selfBooted := base == ""
	if selfBooted {
		var closeFn func()
		var err error
		if base, closeFn, err = boot(); err != nil {
			log.Fatal("metricscheck: ", err)
		}
		defer closeFn()
		if err := driveTraffic(base); err != nil {
			log.Fatal("metricscheck: ", err)
		}
	}

	sc, err := scrape(base)
	if err != nil {
		log.Fatal("metricscheck: ", err)
	}
	failed := checkInventory(sc)
	if selfBooted {
		failed = checkValues(sc) || failed
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("metricscheck: OK — %d samples, %d/%d documented families present\n",
		len(sc.Samples), len(inventory), len(inventory))
}

// boot starts a durable collector on a loopback listener over a temp
// store directory.
func boot() (string, func(), error) {
	dir, err := os.MkdirTemp("", "metricscheck")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	sp := core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25),
		core.WithScheme(core.SchemeEMFStar),
		core.WithServe(core.ServeSpec{Warm: true, ExpectedUsers: 64}))
	srv, err := transport.NewServerOpts(stream.Config{Spec: sp}, transport.ServerOptions{Store: st})
	if err != nil {
		_ = st.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		_ = st.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	lis, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		_ = ln.Close()
		srv.Close()
		_ = st.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	closeFn := func() {
		_ = hs.Close()
		_ = lis.Close()
		srv.Close()
		_ = st.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), closeFn, nil
}

// driveTraffic exercises every instrumented layer: honest reports (HTTP
// + stream + privacy + WAL), one deliberate 4xx, a rotation and a live
// estimate (solver).
func driveTraffic(base string) error {
	ctx := context.Background()
	root := transport.NewClient(base, nil)
	client := root.Tenant(transport.DefaultTenant)
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 16; i++ {
		if _, err := client.SubmitValue(ctx, r, 0.2); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
	}
	// A 4xx on an instrumented route: config of a tenant that never existed.
	if _, err := root.Tenant("no-such-tenant").Config(ctx); err == nil {
		return fmt.Errorf("expected a 404 for the unknown tenant")
	}
	if err := driveFrames(ctx, client, base, r); err != nil {
		return err
	}
	if _, err := client.Rotate(ctx); err != nil {
		return fmt.Errorf("rotate: %w", err)
	}
	if _, err := client.Estimate(ctx, ""); err != nil {
		return fmt.Errorf("estimate: %w", err)
	}
	return nil
}

// driveFrames exercises the binary wire: one frame over HTTP, one
// corrupt frame (a guaranteed reject), and one frame as a UDP datagram —
// polling the status endpoint until the asynchronous UDP delivery lands
// so the scrape sees every dap_frames_*/dap_udp_* family moved.
func driveFrames(ctx context.Context, client *transport.TenantClient, base string, r *rand.Rand) error {
	cfg, err := client.Config(ctx)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	g := cfg.Groups[0]
	mech, err := pm.New(g.Eps)
	if err != nil {
		return err
	}
	perturbed := func() []float64 {
		vals := make([]float64, g.Reports)
		for i := range vals {
			vals[i] = mech.Perturb(r, 0.2)
		}
		return vals
	}
	out, err := client.IngestFrame(ctx, 1,
		[]wirebin.Entry{{User: "frame-http", Group: g.Index, Values: perturbed()}})
	if err != nil || out.Rejected != 0 {
		return fmt.Errorf("frame ingest: %v (rejected %d: %v)", err, out.Rejected, out.Errors)
	}
	// A corrupt frame must answer 400 and bump the reject counter.
	resp, err := http.Post(base+"/v1/tenants/"+transport.DefaultTenant+"/ingest", wirebin.ContentType,
		bytes.NewReader([]byte("DAPF not a frame")))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		return fmt.Errorf("corrupt frame answered %s, want 400", resp.Status)
	}
	if cfg.UDPAddr == "" {
		return fmt.Errorf("no udp_addr advertised on the config route")
	}
	// Confirm the asynchronous UDP delivery from the monotonic ingested
	// metric, not the window report totals: an epoch rotation resets the
	// window mid-poll and would make delivery look lost (see
	// TestIngestedSurvivesRotation).
	before, err := ingestedTotal(base)
	if err != nil {
		return err
	}
	uc, err := transport.DialUDP(cfg.UDPAddr, "")
	if err != nil {
		return err
	}
	defer uc.Close()
	if _, err := uc.Send([]wirebin.Entry{{User: "frame-udp", Group: g.Index, Values: perturbed()}}); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := ingestedTotal(base)
		if err != nil {
			return err
		}
		if got >= before+float64(g.Reports) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("UDP frame never landed (ingested %g → %g)", before, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ingestedTotal scrapes the default tenant's monotonic
// dap_stream_reports_ingested_total — the delivery-confirmation signal
// that, unlike the status route's window totals, survives epoch rotation.
func ingestedTotal(base string) (float64, error) {
	sc, err := scrape(base)
	if err != nil {
		return 0, err
	}
	return sc.Value("dap_stream_reports_ingested_total",
		map[string]string{"tenant": transport.DefaultTenant}), nil
}

func scrape(base string) (*metrics.Scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		return nil, fmt.Errorf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	return metrics.Parse(resp.Body)
}

// checkInventory verifies every documented family is exposed with its
// documented type. Returns true when anything failed.
func checkInventory(sc *metrics.Scrape) bool {
	failed := false
	for _, m := range inventory {
		typ, ok := sc.Types[m.name]
		switch {
		case !ok:
			fmt.Printf("metricscheck: FAIL missing documented metric %s\n", m.name)
			failed = true
		case typ != m.typ:
			fmt.Printf("metricscheck: FAIL %s has type %s, documented as %s\n", m.name, typ, m.typ)
			failed = true
		}
	}
	return failed
}

// sum adds up every sample of name whose labels include the match pairs.
func sum(sc *metrics.Scrape, name string, match map[string]string) float64 {
	var total float64
	for _, s := range sc.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// checkValues asserts the self-booted workload moved each layer's
// counters. Returns true when anything failed.
func checkValues(sc *metrics.Scrape) bool {
	tenant := map[string]string{"tenant": transport.DefaultTenant}
	checks := []struct {
		what string
		got  float64
		ok   bool
	}{}
	add := func(what string, got float64, ok bool) {
		checks = append(checks, struct {
			what string
			got  float64
			ok   bool
		}{what, got, ok})
	}
	v := sc.Value("dap_http_requests_total", map[string]string{"code": "2xx", "route": "/v1/tenants/{tenant}/report"})
	add("2xx /v1/tenants/{tenant}/report requests", v, v >= 16)
	// Every route pre-binds all status classes at 0, so sum across routes
	// rather than trusting the first matching series.
	v = sum(sc, "dap_http_requests_total", map[string]string{"code": "4xx"})
	add("a 4xx request", v, v >= 1)
	v = sc.Value("dap_stream_reports_ingested_total", tenant)
	add("reports ingested", v, v >= 16)
	v = sc.Value("dap_stream_epoch_rotations_total", tenant)
	add("an epoch rotation", v, v >= 1)
	v = sc.Value("dap_emf_runs_total", nil)
	add("a solver run", v, v >= 1)
	v = sc.Value("dap_privacy_budget_spent_eps", tenant)
	add("privacy budget spent", v, v > 0)
	v = sc.Value("dap_frames_decoded_total", map[string]string{"transport": "http"})
	add("an HTTP frame decoded", v, v >= 1)
	v = sc.Value("dap_frames_decoded_total", map[string]string{"transport": "udp"})
	add("a UDP frame decoded", v, v >= 1)
	v = sc.Value("dap_frames_rejected_total", map[string]string{"transport": "http"})
	add("a corrupt frame rejected", v, v >= 1)
	v = sc.Value("dap_udp_datagrams_total", nil)
	add("a UDP datagram received", v, v >= 1)
	v = sc.Value("dap_udp_last_seq", nil)
	add("UDP frame sequence tracked", v, v >= 1)
	v = sc.Value("dap_wal_appends_total", nil)
	add("WAL appends", v, v >= 16)
	v = sc.Value("dap_wal_segments", nil)
	add("a WAL segment", v, v >= 1)
	v = sc.Value("dap_store_degraded", nil)
	add("healthy store (degraded=0)", v, v == 0)
	v = sc.Value("dap_collector_recovering", nil)
	add("recovery finished (recovering=0)", v, v == 0)

	failed := false
	for _, c := range checks {
		if !c.ok {
			fmt.Printf("metricscheck: FAIL expected %s, got %g\n", c.what, c.got)
			failed = true
		}
	}
	return failed
}
