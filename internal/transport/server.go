package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/store"
	"repro/internal/stream"
)

// DefaultTenant is the tenant every collector boots with (built from the
// spec NewServerOpts is given) and the one a UDP frame with an empty
// tenant field addresses. It cannot be deleted.
const DefaultTenant = "default"

// maxIngestErrors caps the per-entry rejection reasons echoed back from a
// batched ingest.
const maxIngestErrors = 8

// defaultMaxIngestBytes bounds ingest request bodies when ServerOptions
// leaves MaxIngestBytes zero.
const defaultMaxIngestBytes = 8 << 20

// ServerOptions configures the deployment concerns of a collector; the
// zero value is an ephemeral in-memory server, the pre-durability
// behavior.
type ServerOptions struct {
	// Store, when set, makes the collector durable: the registry is
	// recovered from it at boot (snapshot + WAL replay) and every accepted
	// state change is WAL-logged. The store must be freshly opened and not
	// yet loaded; its lifetime stays with the caller.
	Store *store.Store
	// SnapshotInterval is the period of the background snapshot loop
	// (durable servers only; zero disables periodic snapshots — one is
	// still cut on Close).
	SnapshotInterval time.Duration
	// MaxIngestBytes bounds request bodies (report, ingest, tenant
	// creation, merge); oversized requests fail fast with 413 before any
	// decoding (default 8 MiB, negative disables the limit).
	MaxIngestBytes int64
	// AsyncRecover serves immediately: requests answer 503 + Retry-After
	// while recovery runs in the background. Off, construction blocks
	// until recovery completes.
	AsyncRecover bool
	// Pprof mounts net/http/pprof under /debug/pprof/ (off by default;
	// admin-only — expose it on trusted networks).
	Pprof bool
	// Coordinator, when set, mounts the merge plane (POST /v1/merge and
	// the merged-estimate routes): this server is the coordinator of a
	// multi-node deployment and folds node-pushed epoch deltas into
	// merged estimates. The coordinator's lifetime (Start/Stop of its
	// straggler clock) stays with the caller.
	Coordinator *stream.Coordinator
}

// Server is a multi-tenant DAP collector service on top of the streaming
// aggregation engine: reports land in sharded per-group histograms, epoch
// windows keep estimates fresh without rescanning reports, and one process
// hosts many concurrent aggregations. With a store attached the collector
// is durable: boot recovers tenants from snapshot + WAL, and a crash never
// loses acked budget spend (see internal/store).
type Server struct {
	// regP is published atomically so async recovery can install it while
	// the 503 gate is still up; handlers only dereference it after
	// observing recovering == false.
	regP atomic.Pointer[stream.Registry]

	opts       ServerOptions
	recovering atomic.Bool
	recoverErr atomic.Pointer[string]
	report     atomic.Pointer[stream.RecoveryReport]

	// udpAddr is the bound binary-ingest socket address, advertised on
	// every tenant's config route once ListenUDP has opened it.
	udpAddr atomic.Pointer[string]
}

// NewServerOpts builds a collector whose default tenant serves sp, plus
// deployment options. With opts.Store the registry is recovered from disk
// (a recovered "default" tenant keeps its durable spec — the one it was
// created with — over sp); without, the server is ephemeral.
func NewServerOpts(sp core.Spec, opts ServerOptions) (*Server, error) {
	if opts.MaxIngestBytes == 0 {
		opts.MaxIngestBytes = defaultMaxIngestBytes
	}
	s := &Server{opts: opts}
	if opts.Store == nil {
		reg := stream.NewRegistry()
		if _, err := reg.CreateSpec(DefaultTenant, sp); err != nil {
			return nil, err
		}
		s.install(reg, nil)
		return s, nil
	}
	s.recovering.Store(true)
	if opts.AsyncRecover {
		go func() { _ = s.recover(sp) }()
		return s, nil
	}
	if err := s.recover(sp); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rebuilds the registry from the store and installs it. On
// failure the 503 gate stays up and the error is surfaced on the admin
// status endpoint.
func (s *Server) recover(sp core.Spec) error {
	start := time.Now()
	reg, rep, err := stream.Recover(s.opts.Store)
	if err != nil {
		msg := err.Error()
		s.recoverErr.Store(&msg)
		slog.Error("boot recovery failed", "dir", s.opts.Store.Dir(), "err", err)
		return err
	}
	if _, ok := reg.Get(DefaultTenant); !ok {
		if _, err = reg.CreateSpec(DefaultTenant, sp); err != nil {
			msg := err.Error()
			s.recoverErr.Store(&msg)
			slog.Error("boot recovery failed", "dir", s.opts.Store.Dir(), "err", err)
			return err
		}
	}
	reg.StartSnapshots(s.opts.SnapshotInterval)
	s.install(reg, rep)
	dur := time.Since(start)
	metRecoveryDur.Set(dur.Seconds())
	attrs := []any{"dir", s.opts.Store.Dir(), "duration_ms", dur.Milliseconds()}
	if rep != nil {
		attrs = append(attrs,
			"records", rep.Records, "applied", rep.Applied,
			"tenants", rep.Tenants, "torn", rep.Torn)
	}
	slog.Info("boot recovery complete", attrs...)
	return nil
}

// install publishes the registry and drops the recovery gate. The
// atomic.Bool store orders after the pointer store, so a handler that
// observes recovering == false sees the installed registry.
func (s *Server) install(reg *stream.Registry, rep *stream.RecoveryReport) {
	s.regP.Store(reg)
	if rep != nil {
		s.report.Store(rep)
	}
	s.recovering.Store(false)
}

// Registry exposes the tenant registry (load generators and tests). It is
// nil while an async recovery is still running.
func (s *Server) Registry() *stream.Registry { return s.regP.Load() }

// Recovering reports whether boot recovery is still in progress (or has
// failed — see the admin status endpoint for the error).
func (s *Server) Recovering() bool { return s.recovering.Load() }

// Close stops the snapshot loop and every tenant's epoch clock, and — for
// a durable server — drains one final snapshot. The store itself is not
// closed; it belongs to whoever opened it.
func (s *Server) Close() {
	if reg := s.regP.Load(); reg != nil {
		reg.Close()
	}
}

// Handler returns the HTTP API. Every route is instrumented (request
// count/latency/size by route pattern) and logged via slog; GET /metrics
// serves the Prometheus exposition and, with ServerOptions.Pprof, the
// net/http/pprof handlers mount under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, route string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+route, instrument(route, h))
	}
	// Tenant CRUD.
	handle("GET", "/v1/tenants", s.handleTenantList)
	handle("POST", "/v1/tenants", s.handleTenantCreate)
	handle("GET", "/v1/tenants/{tenant}", s.scoped(s.handleTenantStatus))
	handle("DELETE", "/v1/tenants/{tenant}", s.handleTenantDelete)
	// The data plane: every route addresses its tenant in the path.
	handle("GET", "/v1/tenants/{tenant}/config", s.scoped(s.handleConfig))
	handle("POST", "/v1/tenants/{tenant}/join", s.scoped(s.handleJoin))
	handle("POST", "/v1/tenants/{tenant}/report", s.scoped(s.handleReport))
	handle("POST", "/v1/tenants/{tenant}/ingest", s.scoped(s.handleIngest))
	handle("GET", "/v1/tenants/{tenant}/status", s.scoped(s.handleStatus))
	handle("GET", "/v1/tenants/{tenant}/estimate", s.scoped(s.handleEstimate))
	handle("POST", "/v1/tenants/{tenant}/rotate", s.scoped(s.handleRotate))
	// Merge plane (coordinators only): nodes push sealed epoch deltas,
	// reads serve the merged estimates.
	if s.opts.Coordinator != nil {
		handle("POST", "/v1/merge", s.handleMerge)
		handle("GET", "/v1/merge/estimate/{tenant}", s.handleMergeEstimate)
	}
	// Admin: store health, recovery state, last-snapshot age. Reachable
	// while the collector is still recovering — it is how operators watch
	// recovery progress.
	handle("GET", "/v1/admin/status", s.handleAdminStatus)
	// Observability: the metrics exposition is served (and left
	// uninstrumented — scrapes should not inflate the request metrics
	// they report) and pprof mounts when explicitly enabled.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The recovery gate 503s the data plane but leaves the
		// observability plane open: admin status, the metrics scrape and
		// pprof are exactly what an operator needs while recovery runs.
		if s.recovering.Load() && !recoveryExempt(r) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "collector is recovering; retry shortly")
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// recoveryExempt reports whether a request bypasses the recovery gate.
func recoveryExempt(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	p := r.URL.Path
	return p == "/v1/admin/status" || p == "/metrics" || strings.HasPrefix(p, "/debug/pprof/")
}

// scoped resolves {tenant} from the path.
func (s *Server) scoped(h func(http.ResponseWriter, *http.Request, *stream.Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := s.regP.Load().Get(name)
		if !ok {
			writeErr(w, http.StatusNotFound, "tenant %q not found", name)
			return
		}
		h(w, r, t)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// ingestStatus maps an engine rejection to an HTTP status.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, privacy.ErrBudgetExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, stream.ErrWrongGroup):
		return http.StatusForbidden
	case errors.Is(err, stream.ErrStoreDown), errors.Is(err, stream.ErrRotating):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeEngineErr maps an engine rejection onto the wire, attaching
// Retry-After to the retryable (503) ones so well-behaved clients back
// off instead of hammering a recovering store.
func writeEngineErr(w http.ResponseWriter, err error) {
	status := ingestStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, status, "%v", err)
}

// limitBody enforces the request body-size limit: oversized requests with
// a declared length fail fast with 413 before a byte is read, and chunked
// uploads are cut off at the limit while the body is read.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) bool {
	max := s.opts.MaxIngestBytes
	if max <= 0 {
		return true
	}
	if r.ContentLength > max {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body %d bytes exceeds the %d-byte limit", r.ContentLength, max)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, max)
	return true
}

// decodeStatus distinguishes an oversized body (413, from MaxBytesReader)
// from plain bad JSON (400).
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func configResponse(t *stream.Tenant) ConfigResponse {
	sp := t.Spec()
	serve := sp.Serve
	out := ConfigResponse{
		Eps: sp.Eps, Eps0: sp.Eps0, Scheme: sp.Scheme,
		Kind: t.Kind().String(), K: sp.K, Shards: serve.Shards,
		WindowMode: serve.Window, WindowSpan: serve.Span,
		Buckets: serve.Buckets, EpochMs: serve.EpochMs, Wire: serve.Wire,
		Spec: &sp,
	}
	for _, g := range t.Groups() {
		out.Groups = append(out.Groups, GroupInfo{Index: g.Index, Eps: g.Eps, Reports: g.Reports})
	}
	return out
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request, t *stream.Tenant) {
	out := configResponse(t)
	if addr := s.udpAddr.Load(); addr != nil {
		out.UDPAddr = *addr
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJoin(w http.ResponseWriter, _ *http.Request, t *stream.Tenant) {
	id, g := t.Join()
	writeJSON(w, http.StatusOK, JoinResponse{
		User:  id,
		Group: GroupInfo{Index: g.Index, Eps: g.Eps, Reports: g.Reports},
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request, t *stream.Tenant) {
	if !s.limitBody(w, r) {
		return
	}
	fc := codecPool.Get().(*ingestCodec)
	defer codecPool.Put(fc)
	e, err := fc.decodeReportJSON(r)
	if err != nil {
		writeErr(w, decodeStatus(err), "invalid JSON: %v", err)
		return
	}
	if err := t.Ingest(e.User, e.Group, e.Values); err != nil {
		writeEngineErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ReportResponse{Accepted: len(e.Values)})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, t *stream.Tenant) {
	if !s.limitBody(w, r) {
		return
	}
	if isFrameRequest(r) {
		s.handleIngestFrame(w, r, t)
		return
	}
	fc := codecPool.Get().(*ingestCodec)
	defer codecPool.Put(fc)
	entries, err := fc.decodeIngestJSON(r)
	if err != nil {
		writeErr(w, decodeStatus(err), "invalid JSON: %v", err)
		return
	}
	// One engine call applies the whole batch under a single WAL write —
	// the durable fast path — with per-entry accept/reject semantics. A
	// dead store fails every staged entry the same way, and the engine
	// rolled all of them back — nothing was applied, so the whole batch is
	// retryable: answer 503 and the client re-sends it after the store
	// heals.
	out, err := applyBatch(t, entries)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, t *stream.Tenant) {
	st := t.Status()
	out := StatusResponse{
		Users:        st.Users,
		GroupReports: make([]int, len(st.GroupReports)),
		Kind:         st.Task.String(),
		Reporters:    st.Reporters,
		Epoch:        st.Epoch,
		CachedEpoch:  st.CachedEpoch,
	}
	for i, n := range st.GroupReports {
		out.GroupReports[i] = int(n)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, t *stream.Tenant) {
	var snap *stream.Snapshot
	var err error
	switch r.URL.Query().Get("live") {
	case "1", "true":
		snap, err = t.Estimate(true)
	case "0", "false":
		snap, err = t.Estimate(false)
	default:
		// Prefer the per-epoch cache (free and at most one epoch stale);
		// fall back to a live estimate for clockless tenants.
		if snap = t.Cached(); snap == nil {
			snap, err = t.Estimate(true)
		}
	}
	if err != nil {
		writeErr(w, http.StatusConflict, "estimation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse(snap))
}

func (s *Server) handleRotate(w http.ResponseWriter, _ *http.Request, t *stream.Tenant) {
	snap, err := t.TryRotate()
	if err != nil {
		// In-flight rotation or a dead store: retryable, 503 + Retry-After.
		if errors.Is(err, stream.ErrRotating) || errors.Is(err, stream.ErrStoreDown) {
			writeEngineErr(w, err)
			return
		}
		writeErr(w, http.StatusConflict, "rotation sealed an epoch but estimation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, estimateResponse(snap))
}

func estimateResponse(snap *stream.Snapshot) EstimateResponse {
	out := EstimateResponse{
		Kind:    snap.Task.String(),
		Epoch:   snap.Epoch,
		Live:    snap.Live,
		Reports: snap.Reports,
	}
	if e := snap.Result; e != nil {
		out.Mean, out.Gamma, out.PoisonedRight = e.Mean, e.Gamma, e.PoisonedRight
		out.GroupMeans, out.Weights, out.VarMin = e.GroupMeans, e.Weights, e.VarMin
		out.Freqs, out.PoisonCats, out.XHat = e.Freqs, e.PoisonCats, e.XHat
		out.Variance, out.SecondMoment = e.Variance, e.SecondMoment
		out.EMFIters, out.EMFRestarts = e.EMFIters, e.EMFRestarts
		out.WarmHits, out.Converged = e.WarmHits, e.Converged
	}
	return out
}

func tenantStatusResponse(t *stream.Tenant) TenantStatusResponse {
	st := t.Status()
	return TenantStatusResponse{
		Name: st.Name, Kind: st.Task.String(), Eps: st.Eps, Eps0: st.Eps0,
		Scheme: st.Scheme, Users: st.Users, Reporters: st.Reporters,
		Epoch: st.Epoch, GroupReports: st.GroupReports, CachedEpoch: st.CachedEpoch,
		Spec: t.Spec(),
	}
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	out := TenantListResponse{Tenants: []TenantStatusResponse{}}
	for _, t := range s.regP.Load().List() {
		out.Tenants = append(out.Tenants, tenantStatusResponse(t))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAdminStatus(w http.ResponseWriter, _ *http.Request) {
	out := AdminStatusResponse{Recovering: s.recovering.Load()}
	if e := s.recoverErr.Load(); e != nil {
		out.RecoverError = *e
	}
	if reg := s.regP.Load(); reg != nil {
		out.Tenants = len(reg.List())
		if st := reg.Store(); st != nil {
			out.Durable = true
			h := st.Health()
			out.Degraded = !h.Healthy
			info := &StoreHealthInfo{
				Healthy: h.Healthy, LastErr: h.LastErr, LSN: h.LSN,
				Segments: h.Segments, WALBytes: h.WALBytes,
				SnapshotLSN: h.SnapshotLSN, Dir: h.Dir,
			}
			if !h.LastSnapshot.IsZero() {
				info.LastSnapshotAgeMs = time.Since(h.LastSnapshot).Milliseconds()
			}
			out.Store = info
		}
	}
	if c := s.opts.Coordinator; c != nil {
		out.Merge = mergeStatusInfo(c)
		out.Degraded = out.Degraded || out.Merge.Degraded
	}
	if rep := s.report.Load(); rep != nil {
		out.Recovery = &RecoveryInfo{
			SnapshotLSN: rep.SnapshotLSN, Records: rep.Records, Applied: rep.Applied,
			Tenants: rep.Tenants, Torn: rep.Torn, Warnings: rep.Warnings,
			SpendBefore: rep.SpendBefore, SpendAfter: rep.SpendAfter,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	if !s.limitBody(w, r) {
		return
	}
	var req TenantRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, decodeStatus(err), "invalid JSON: %v", err)
		return
	}
	if req.Spec == nil {
		writeErr(w, http.StatusBadRequest, "tenant creation needs a task spec in \"spec\"")
		return
	}
	t, err := s.regP.Load().CreateSpec(req.Name, *req.Spec)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, core.ErrBadSpec) {
			status = http.StatusBadRequest
		}
		if errors.Is(err, stream.ErrStoreDown) {
			writeEngineErr(w, err)
			return
		}
		writeErr(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, tenantStatusResponse(t))
}

func (s *Server) handleTenantStatus(w http.ResponseWriter, _ *http.Request, t *stream.Tenant) {
	writeJSON(w, http.StatusOK, tenantStatusResponse(t))
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if name == DefaultTenant {
		writeErr(w, http.StatusBadRequest, "the default tenant cannot be deleted")
		return
	}
	if !s.regP.Load().Delete(name) {
		writeErr(w, http.StatusNotFound, "tenant %q not found", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
