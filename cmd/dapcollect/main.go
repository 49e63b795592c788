// Command dapcollect serves the multi-tenant DAP collector over HTTP.
//
// Usage:
//
//	dapcollect -addr :8080 -spec specs/serve.json
//	dapcollect -addr :8080 -eps 1 -eps0 0.0625 -scheme cemf -epoch 30s
//
// The collector boots with one tenant, "default", created from a task
// spec: -spec file.json loads one (the same JSON accepted by batch
// estimation, the stream engine and POST /v1/tenants), and the protocol
// flags act as overrides for fields set explicitly on the command line.
// Further tenants are managed at runtime via POST /v1/tenants with
// {"name","spec"}. Every data-plane route names its tenant in the path:
// GET /v1/tenants/{tenant}/config, POST .../join, POST .../report (one
// user's reports), POST .../ingest (batched reports), GET .../status,
// GET .../estimate and POST .../rotate (seal the epoch). Clients perturb
// locally; the server never sees raw values, charges each user's ε
// atomically before any state changes, and stores only sharded
// histograms — never raw reports.
//
// Besides JSON, POST /v1/tenants/{tenant}/ingest accepts compact binary
// frames (Content-Type: application/x-dap-frame, or
// application/x-dap-frame-stream for several length-prefixed frames per
// request), and -udp (or the spec's serve.udp_addr) opens a best-effort
// UDP socket where one datagram is one frame naming its tenant (empty =
// "default") — see DESIGN.md's wire-format section.
//
// With -store-dir the collector is durable: accepted reports, joins,
// rotations and tenant lifecycle events are WAL-logged under the
// directory, periodic checksummed snapshots bound replay time
// (-snapshot-interval), and boot recovers the registry from the newest
// verifiable snapshot plus the WAL tail — requests answer 503 with
// Retry-After until recovery finishes. -fsync picks the durability/latency
// trade-off (always | interval | os). GET /v1/admin/status reports store
// health, last-snapshot age and the recovery summary.
//
// Observability: GET /metrics serves every layer's metrics in the
// Prometheus text exposition format (requests, ingest, epochs, solver,
// privacy budget, WAL health) and stays reachable during recovery, as
// does GET /v1/admin/status. Structured logs go to stderr via log/slog
// (-log-level, -log-format); -pprof mounts net/http/pprof under
// /debug/pprof/ for live profiling (off by default — expose only on
// trusted networks).
//
// The process shuts down gracefully: SIGINT/SIGTERM stop accepting
// connections, in-flight requests drain (bounded by -drain-timeout),
// every tenant's epoch clock is stopped, and a durable collector cuts one
// final snapshot before closing the store.
//
// Scale-out: -role=node and -role=coordinator form a multi-node
// deployment. A node is an ordinary collector that additionally pushes
// every sealed epoch — per-tenant histogram counts, per-stripe sums and
// budget spend, as a CRC-sealed delta frame — to -coordinator, retrying
// with backoff; -node-id names it on the merge plane. A coordinator
// serves POST /v1/merge for a fixed -nodes set, deduplicates and folds
// the deltas (publishing an epoch once every node — or, after the
// -straggler timeout, a -quorum — has reported; partial epochs are
// flagged degraded on /v1/admin/status), and serves the merged
// estimates on GET /v1/merge/estimate/{tenant}. With -store-dir a
// coordinator WAL-logs accepted deltas and recovers in-flight epochs
// bit-identically after a crash; the store then belongs to the merge
// plane and the regular serving registry stays in-memory. See
// DESIGN.md's "Distributed collector" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/specflag"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

// setupLogging installs the process-wide slog handler from the CLI
// flags. The transport's request middleware, the store's WAL events and
// recovery logging all route through slog.Default.
func setupLogging(level, format string) error {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return fmt.Errorf("unknown log level %q (debug | info | warn | error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, ho)))
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, ho)))
	default:
		return fmt.Errorf("unknown log format %q (text | json)", format)
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		storeDir     = flag.String("store-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")
		snapEvery    = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot interval (with -store-dir; 0 disables)")
		fsync        = flag.String("fsync", "interval", "WAL fsync policy: always | interval | os (with -store-dir)")
		maxBody      = flag.Int64("max-ingest-bytes", 0, "request body limit for report/ingest/tenant-create/merge (0 = 8 MiB default, negative = unlimited)")
		udpAddr      = flag.String("udp", "", "UDP listen address for binary ingest frames (e.g. :9200; empty = spec serve.udp_addr, or off)")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (admin-only; off by default)")
		logLevel     = flag.String("log-level", "info", "log level: debug | info | warn | error")
		logFormat    = flag.String("log-format", "text", "log format: text | json")
		role         = flag.String("role", "", "scale-out role: node | coordinator (empty = standalone)")
		nodeID       = flag.String("node-id", "", "this node's id on the merge plane (with -role=node)")
		coordURL     = flag.String("coordinator", "", "coordinator base URL to push sealed deltas to (with -role=node)")
		nodeList     = flag.String("nodes", "", "comma-separated node ids expected to report (with -role=coordinator)")
		quorum       = flag.Int("quorum", 0, "nodes required for a partial publish after the straggler timeout (0 = all; with -role=coordinator)")
		straggler    = flag.Duration("straggler", 30*time.Second, "how long to hold an epoch open for missing nodes (with -role=coordinator)")
	)
	sf := specflag.New(flag.CommandLine, core.NewSpec(core.MeanTask(),
		core.WithScheme(core.SchemeCEMFStar)))
	flag.Parse()
	if err := setupLogging(*logLevel, *logFormat); err != nil {
		log.Fatal("dapcollect: ", err)
	}
	sp, err := sf.Resolve()
	if err != nil {
		log.Fatal("dapcollect: ", err)
	}
	switch *role {
	case "", "node", "coordinator":
	default:
		log.Fatalf("dapcollect: unknown -role %q (node | coordinator)", *role)
	}
	opts := transport.ServerOptions{MaxIngestBytes: *maxBody, Pprof: *pprofOn}
	var st *store.Store
	if *storeDir != "" {
		policy, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatal("dapcollect: ", err)
		}
		st, err = store.Open(*storeDir, store.Options{Sync: policy})
		if err != nil {
			log.Fatal("dapcollect: ", err)
		}
		if *role == "coordinator" {
			// The store feeds the merge-plane WAL (see below); the serving
			// registry stays in-memory.
			fmt.Printf("dapcollect: durable merge WAL at %s (fsync=%s)\n", *storeDir, *fsync)
		} else {
			opts.Store = st
			opts.SnapshotInterval = *snapEvery
			// Serve immediately; the 503 gate covers the recovery window. A
			// node blocks instead: its seal hook must be installed on the
			// recovered registry before any epoch can seal.
			opts.AsyncRecover = *role != "node"
			fmt.Printf("dapcollect: durable store at %s (fsync=%s, snapshot every %v)\n",
				*storeDir, *fsync, *snapEvery)
		}
	}
	var co *stream.Coordinator
	if *role == "coordinator" {
		ids := splitNodes(*nodeList)
		if len(ids) == 0 {
			log.Fatal("dapcollect: -role=coordinator needs -nodes")
		}
		ccfg := stream.CoordinatorConfig{
			Nodes: ids, Quorum: *quorum, Straggler: *straggler, Store: st,
		}
		if st != nil {
			var rep *stream.RecoveryReport
			co, rep, err = stream.RecoverCoordinator(ccfg)
			if err != nil {
				log.Fatal("dapcollect: merge recovery: ", err)
			}
			slog.Info("merge recovery complete", "records", rep.Records,
				"applied", rep.Applied, "tenants", rep.Tenants, "torn", rep.Torn)
		} else if co, err = stream.NewCoordinator(ccfg); err != nil {
			log.Fatal("dapcollect: ", err)
		}
		// Register the default tenant unless recovery already replayed it.
		if err := co.AddTenantSpec(transport.DefaultTenant, sp); err != nil &&
			!strings.Contains(err.Error(), "already exists") {
			log.Fatal("dapcollect: ", err)
		}
		co.Start(0)
		opts.Coordinator = co
		fmt.Printf("dapcollect: coordinating %d nodes (quorum=%d, straggler=%v)\n",
			len(ids), *quorum, *straggler)
	}
	srv, err := transport.NewServerOpts(stream.Config{Spec: sp}, opts)
	if err != nil {
		log.Fatal("dapcollect: ", err)
	}
	var pusher *deltaPusher
	if *role == "node" {
		if *nodeID == "" || *coordURL == "" {
			log.Fatal("dapcollect: -role=node needs -node-id and -coordinator")
		}
		pc := transport.NewClient(*coordURL, nil)
		pc.SetRetry(5, 2*time.Second)
		pusher = newDeltaPusher(pc, *nodeID)
		srv.Registry().SetSealHook(pusher.hook)
		fmt.Printf("dapcollect: node %q pushing sealed deltas to %s\n", *nodeID, *coordURL)
	}
	udpListen := *udpAddr
	if udpListen == "" && sp.Serve != nil {
		udpListen = sp.Serve.UDPAddr
	}
	var udpLis *transport.UDPListener
	if udpListen != "" {
		udpLis, err = srv.ListenUDP(udpListen)
		if err != nil {
			log.Fatal("dapcollect: ", err)
		}
		fmt.Printf("dapcollect: binary ingest frames on udp %s\n", udpLis.Addr())
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	epoch := time.Duration(0)
	window := "tumbling"
	if sp.Serve != nil {
		epoch = time.Duration(sp.Serve.EpochMs) * time.Millisecond
		if sp.Serve.Window != "" {
			window = sp.Serve.Window
		}
	}
	fmt.Printf("dapcollect: listening on %s (task=%s, ε=%g, ε0=%g, scheme=%s, window=%s, epoch=%v)\n",
		*addr, sp.Task, sp.Eps, sp.Eps0, sp.Scheme, window, epoch)
	select {
	case err := <-done:
		if udpLis != nil {
			_ = udpLis.Close()
		}
		srv.Close()
		if st != nil {
			_ = st.Close()
		}
		log.Fatal("dapcollect: ", err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("dapcollect: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("dapcollect: drain incomplete: %v", err)
	}
	if udpLis != nil {
		_ = udpLis.Close() // stop accepting frames before the final snapshot
	}
	srv.Close() // stop clocks; a durable server drains one final snapshot
	if pusher != nil {
		pusher.Close() // clocks stopped — drain the queued delta pushes
	}
	if co != nil {
		co.Stop()
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("dapcollect: store close: %v", err)
		}
	}
	fmt.Println("dapcollect: bye")
}

// splitNodes parses the -nodes list.
func splitNodes(s string) []string {
	var ids []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// deltaPusher forwards sealed epoch deltas to the coordinator from a
// dedicated goroutine: the seal hook runs on the rotation path, so it
// only stamps the node id and enqueues. A full queue drops the delta —
// the coordinator's straggler timeout tolerates a missing node, and
// wedging rotations on a dead coordinator would be worse.
type deltaPusher struct {
	client *transport.Client
	node   string
	ch     chan *stream.EpochDelta
	done   chan struct{}
}

func newDeltaPusher(c *transport.Client, node string) *deltaPusher {
	p := &deltaPusher{
		client: c, node: node,
		ch:   make(chan *stream.EpochDelta, 128),
		done: make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *deltaPusher) hook(d *stream.EpochDelta) {
	d.Node = p.node
	select {
	case p.ch <- d:
	default:
		slog.Warn("delta push queue full; dropping sealed delta",
			"tenant", d.Tenant, "epoch", d.Epoch)
	}
}

func (p *deltaPusher) run() {
	defer close(p.done)
	for d := range p.ch {
		frame, err := wirebin.EncodeDelta(d)
		if err != nil {
			slog.Error("delta encode failed", "tenant", d.Tenant, "epoch", d.Epoch, "err", err)
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := p.client.PushDelta(ctx, frame)
		cancel()
		if err != nil {
			slog.Error("delta push failed", "tenant", d.Tenant, "epoch", d.Epoch, "err", err)
			continue
		}
		slog.Debug("delta pushed", "tenant", d.Tenant, "epoch", d.Epoch,
			"status", res.Status, "published", res.Published)
	}
}

// Close drains the queue and stops the push goroutine. Call after the
// epoch clocks are stopped — the seal hook must not fire concurrently.
func (p *deltaPusher) Close() {
	close(p.ch)
	<-p.done
}
