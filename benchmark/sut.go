package main

// sut.go is the only file of the benchmark that names a symbol or an HTTP
// route of the system under test. It is limited to the surface ROADMAP
// item 2 keeps (one options-taking server constructor, per-tenant routes,
// spec-based tenant creation, the batch ingest/rotate/estimate engine
// calls, the store and accountant primitives, the frame codec, core.Build
// and the EMF solver), so a simplification PR that deletes the deprecated
// surface never has to edit the benchmark.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/emf"
	"repro/internal/ldp/krr"
	"repro/internal/ldp/pm"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

// Wire types of the system under test, re-exported under local names.
type (
	spec         = core.Spec
	group        = core.Group
	estimator    = core.Estimator
	collection   = core.Collection
	histograms   = core.HistCollection
	result       = core.Result
	entry        = wirebin.Entry
	frameEncoder = wirebin.Encoder
	frameDecoder = wirebin.Decoder
	engineTenant = stream.Tenant
	registry     = stream.Registry
	accountant   = privacy.Accountant
	walStore     = store.Store
	emfMatrix    = emf.Matrix
	epochDelta   = stream.EpochDelta
	coordinator  = stream.Coordinator

	ingestRequest    = transport.IngestRequest
	reportRequest    = transport.ReportRequest
	estimateResponse = transport.EstimateResponse
	statusResponse   = transport.StatusResponse
)

// Content types of the three ingest bodies.
const (
	ctJSON        = "application/json"
	ctFrameStream = wirebin.ContentTypeStream
	ctFrame       = wirebin.ContentType
)

// Routes. Every data-plane route is tenant-scoped.
const (
	routeTenants = "/v1/tenants"
	routeMetrics = "/metrics"
)

func routeTenant(t string) string   { return "/v1/tenants/" + t }
func routeIngest(t string) string   { return "/v1/tenants/" + t + "/ingest" }
func routeRotate(t string) string   { return "/v1/tenants/" + t + "/rotate" }
func routeStatus(t string) string   { return "/v1/tenants/" + t + "/status" }
func routeEstimate(t string) string { return "/v1/tenants/" + t + "/estimate" }
func routeLive(t string) string     { return "/v1/tenants/" + t + "/estimate?live=1" }

// tenantCreateBody renders the {"name","spec"} creation request.
func tenantCreateBody(name string, sp spec) []byte {
	b, err := json.Marshal(transport.TenantRequest{Name: name, Spec: &sp})
	if err != nil {
		panic(err) // a spec of plain fields always marshals
	}
	return b
}

// meanSpec is the mean-estimation tenant of the ingest workloads and of
// paper_batch: PM over h = log2(eps/eps0)+1 groups. users sizes the
// per-group histogram resolution exactly as the batch collector would.
func meanSpec(scheme string, eps, eps0 float64, users int) spec {
	return spec{
		Task: core.TaskMean, Scheme: scheme, Eps: eps, Eps0: eps0,
		Serve: &core.ServeSpec{ExpectedUsers: users, Shards: 8, Window: "tumbling"},
	}
}

// freqSpec is serve_mixed's categorical tenant: k-RR over k categories.
func freqSpec(k, users int) spec {
	return spec{
		Task: core.TaskFrequency, Scheme: "cemfstar", Eps: 1, Eps0: 1.0 / 16, K: k,
		Serve: &core.ServeSpec{ExpectedUsers: users, Shards: 8, Window: "tumbling"},
	}
}

// buildEstimator is core.Build.
func buildEstimator(sp spec) (estimator, error) { return core.Build(sp) }

// collect simulates the user side of one batch trial: values perturbed by
// the estimator's mechanism, a gamma share of users replaced by a biased
// Byzantine attack on [C/2, C].
func collect(est estimator, r *rand.Rand, values []float64, gamma float64) (*collection, error) {
	c, ok := est.(core.Collector)
	if !ok {
		return nil, fmt.Errorf("estimator for task %q cannot collect", est.Spec().Task)
	}
	return c.Collect(r, values, attack.NewBBA(attack.Range{LoC: 0.5, HiC: 1}, attack.DistUniform), gamma)
}

// outputDomain returns the report domain [lo, hi] of one group.
func outputDomain(est estimator, g int) (lo, hi float64, err error) {
	s, ok := est.(core.Streamable)
	if !ok {
		return 0, 0, fmt.Errorf("estimator for task %q has no output domain", est.Spec().Task)
	}
	d := s.OutputDomain(g)
	return d.Lo, d.Hi, nil
}

// outputBuckets is the paper's histogram resolution rule for n reports.
func outputBuckets(n int) int { return emf.OutputBuckets(n) }

// newRand is the repository's seeded generator.
func newRand(seed, stream uint64) *rand.Rand { return rng.Split(seed, stream) }

// perturber is one group's client-side mechanism.
type perturber struct {
	pm  *pm.Mechanism
	krr *krr.Mechanism
}

func newPM(eps float64) (perturber, error) {
	m, err := pm.New(eps)
	return perturber{pm: m}, err
}

func newKRR(eps float64, k int) (perturber, error) {
	m, err := krr.New(eps, k)
	return perturber{krr: m}, err
}

// bound is the PM output bound C (reports lie in [-C, C]).
func (p perturber) bound() float64 { return p.pm.C() }

func (p perturber) perturb(r *rand.Rand, v float64) float64 { return p.pm.Perturb(r, v) }

func (p perturber) perturbCat(r *rand.Rand, c int) int { return p.krr.PerturbCat(r, c) }

// collector is one in-process collector served over loopback HTTP.
type collector struct {
	srv  *transport.Server
	st   *walStore
	hs   *http.Server
	done chan struct{}
	addr string
}

// openStore opens a WAL store with fsync left to the OS.
func openStore(dir string) (*walStore, error) {
	return store.Open(dir, store.Options{Sync: store.SyncOS})
}

// bootCollector starts a collector on a fresh loopback port. With walDir
// the collector is durable (recovering whatever the directory holds).
func bootCollector(walDir string) (*collector, error) {
	c := &collector{done: make(chan struct{})}
	var opts transport.ServerOptions
	if walDir != "" {
		st, err := openStore(walDir)
		if err != nil {
			return nil, err
		}
		c.st, opts.Store = st, st
	}
	// The constructor insists on a default tenant; the benchmark never
	// addresses it.
	cfg, err := stream.ConfigFromSpec(meanSpec("emfstar", 1, 0.25, 64))
	if err == nil {
		c.srv, err = transport.NewServerOpts(cfg, opts)
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		if c.st != nil {
			_ = c.st.Close()
		}
		return nil, err
	}
	c.addr = ln.Addr().String()
	c.hs = &http.Server{Handler: c.srv.Handler()}
	go func() {
		defer close(c.done)
		_ = c.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return c, nil
}

// handler is the collector's HTTP API for in-memory requests.
func (c *collector) handler() http.Handler { return c.srv.Handler() }

// tenant returns the engine tenant behind a name.
func (c *collector) tenant(name string) (*engineTenant, bool) {
	return c.srv.Registry().Get(name)
}

// close stops serving and waits for the listener goroutine. With crash
// the engine is abandoned as a killed process would leave it (no final
// snapshot), so a reopened store recovers by WAL replay.
func (c *collector) close(crash bool) error {
	err := c.hs.Close()
	<-c.done
	if !crash {
		c.srv.Close()
	}
	if c.st != nil {
		if cerr := c.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// The engine calls the traced run makes directly, one wrapper each.

func ingestBatch(t *engineTenant, b []entry) []error { return t.IngestBatch(b) }

func estimateTenant(t *engineTenant, live bool) error {
	_, err := t.Estimate(live)
	return err
}

func rotateTenant(t *engineTenant) error {
	_, err := t.Rotate()
	return err
}

func setSealHook(t *engineTenant, fn func(*epochDelta)) { t.SetSealHook(fn) }

func tenantName(t *engineTenant) string { return t.Name() }

func spendN(a *accountant, user string, eps float64, n int) error { return a.SpendN(user, eps, n) }

func appendBatch(st *walStore, tenant string, b []entry) error {
	_, err := st.AppendIngestBatch(tenant, b)
	return err
}

func applyDelta(co *coordinator, frame []byte) error {
	_, err := co.Apply(frame)
	return err
}

// decodeFrame decodes one frame and returns how many entries it held.
func decodeFrame(dec *frameDecoder, raw []byte) (int, error) {
	fr, err := dec.Decode(raw)
	if err != nil {
		return 0, err
	}
	return len(fr.Entries), nil
}

// ledger exports a tenant's per-user spent budget.
func ledger(t *engineTenant) map[string]float64 { return t.Accountant().Export() }

// newEngineTenant builds a tenant without a server around it.
func newEngineTenant(name string, sp spec) (*engineTenant, error) {
	return stream.NewTenantSpec(name, sp)
}

// recoverRegistry rebuilds a durable registry from a freshly opened store
// (snapshot load plus WAL replay); tenants created on it are WAL-logged.
func recoverRegistry(st *walStore) (*registry, error) {
	reg, _, err := stream.Recover(st)
	return reg, err
}

// createTenant registers a tenant on a registry from its spec.
func createTenant(reg *registry, name string, sp spec) (*engineTenant, error) {
	return reg.CreateSpec(name, sp)
}

// lookupTenant returns a registry's tenant by name.
func lookupTenant(reg *registry, name string) (*engineTenant, bool) { return reg.Get(name) }

// cutSnapshot writes a full snapshot of a durable registry.
func cutSnapshot(reg *registry) error { return reg.Snapshot() }

// loadStore scans a freshly opened store so it accepts appends.
func loadStore(st *walStore) error {
	_, err := st.Load()
	return err
}

// walBytes is the size of a store's live WAL segments.
func walBytes(st *walStore) int64 { return st.Health().WALBytes }

// newAccountant is a bare budget ledger with per-user cap eps.
func newAccountant(eps float64) (*accountant, error) { return privacy.NewAccountant(eps) }

// newCoordinator is a one-node merge plane hosting one tenant.
func newCoordinator(node, tenant string, sp spec) (*coordinator, error) {
	c, err := stream.NewCoordinator(stream.CoordinatorConfig{Nodes: []string{node}})
	if err != nil {
		return nil, err
	}
	return c, c.AddTenantSpec(tenant, sp)
}

// encodeDelta seals a delta into its wire frame.
func encodeDelta(d *epochDelta) ([]byte, error) { return wirebin.EncodeDelta(d) }

// buildMatrix is the uncached transform-matrix construction for a PM
// group at output resolution dprime.
func buildMatrix(eps float64, dprime int) (*emfMatrix, error) {
	m, err := pm.New(eps)
	if err != nil {
		return nil, err
	}
	return emf.BuildNumeric(m, emf.InputBuckets(dprime, m.C()), dprime)
}

// runEMF is one plain EMF fit with the right half as poison set, at the
// paper's tolerance for budget eps.
func runEMF(m *emfMatrix, counts []float64, eps float64) (iters, restarts int, err error) {
	res, err := emf.Run(m, counts, m.PoisonRight(0), emf.Config{Tol: emf.PaperTol(eps), Accelerate: true})
	if err != nil {
		return 0, 0, err
	}
	return res.Iters, res.Restarts, nil
}

// estimateHist is Estimator.EstimateHist without a warm start.
func estimateHist(est estimator, hc *histograms) (*result, error) {
	return est.EstimateHist(context.Background(), hc)
}

// estimateRaw is Estimator.Estimate over a raw collection.
func estimateRaw(est estimator, col *collection) (*result, error) {
	return est.Estimate(context.Background(), col)
}
