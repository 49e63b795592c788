// Command daploadgen drives a running DAP collector with a configurable
// honest+Byzantine client mix and checks what the collector serves back.
// It is a traffic source, not a measuring instrument: speed is measured
// by the repository benchmark (benchmark/).
//
// Usage:
//
//	daploadgen -addr http://localhost:8080 -users 10000 -gamma 0.1 -conns 8
//	daploadgen -addr "" -reports 10000 -epoch 150ms -wire bin
//
// With -addr "" the generator boots an in-process collector over a real
// loopback HTTP listener (the full wire stack, no external process).
// Honest users perturb locally with their assigned group's budget,
// exactly like real clients; Byzantine users submit high-half poison
// values. Reports travel in batched POST /v1/tenants/{tenant}/ingest
// requests of -batch users each (-tenant picks the tenant, "default"
// unless given); -wire bin sends -frames batches per request as a frame
// stream, -wire udp one datagram per batch.
//
// After ingest the epoch is sealed and the live and cached estimates are
// read back. The run fails unless they hold for any traffic: weights
// that sum to 1, a live mean in [-1, 1], and a cached estimate of a
// sealed epoch. How close the mean must come to the honest truth depends
// on the traffic, so the command's tests check that, not the command.
// -scrape-metrics scrapes the collector's /metrics before and after the
// run and fails unless the server-side ingest counter delta for the
// tenant matches the client-side acked report count — an end-to-end
// check that the observability pipeline counts exactly what the wire
// acked.
//
// -retries N retries transient failures (network errors, 5xx responses)
// with exponential backoff plus jitter, honouring the collector's
// Retry-After — rotation and crash-recovery windows then cost latency
// instead of failed runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ldp/pm"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/specflag"
	"repro/internal/transport"
	"repro/internal/wirebin"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal("daploadgen: ", err)
	}
}

// served is what one run sent and read back: the acked report count, the
// honest population's true mean, and the live and cached estimates.
type served struct {
	Acked        int
	HonestMean   float64
	Live, Cached *transport.EstimateResponse
}

// run is the whole command: it parses args (exiting on a bad flag, as
// the flag package does), drives the collector, reads the estimates back
// and returns an error when any traffic-independent check fails (see
// sane and -scrape-metrics).
func run(args []string, stdout io.Writer) (served, error) {
	fs := flag.NewFlagSet("daploadgen", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "collector base URL; empty boots an in-process collector")
		tenant  = fs.String("tenant", transport.DefaultTenant, "tenant to drive")
		users   = fs.Int("users", 0, "users to simulate (0 = derive from -reports)")
		reports = fs.Int("reports", 10000, "target total report count (used when -users is 0)")
		conns   = fs.Int("conns", 4, "concurrent sender connections")
		batch   = fs.Int("batch", 200, "users per ingest request")
		gamma   = fs.Float64("gamma", 0, "Byzantine user fraction")
		atkEps  = fs.Int("attack-epochs", 1, "attacker epochs the workload spans (drives epoch-adaptive attacks like ramp and burst)")
		lo      = fs.Float64("lo", -0.5, "honest value range low")
		hi      = fs.Float64("hi", 0.1, "honest value range high")
		seed    = fs.Uint64("seed", 1, "workload rng seed")
		retries = fs.Int("retries", 0, "retry transient failures (network errors, 5xx) up to this many times per request")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
		scrapeM = fs.Bool("scrape-metrics", false, "scrape the collector's /metrics before and after the run and fail unless the server-side ingest counter delta matches the client-side acked count")
		wire    = fs.String("wire", "", "ingest wire: json | bin (binary frames over HTTP) | udp (binary frames over UDP); empty follows the tenant's advertised preference")
		udpAddr = fs.String("udp-addr", "", "UDP ingest socket address for -wire=udp (empty uses the collector's advertised udp_addr)")
		frames  = fs.Int("frames", 8, "frames per HTTP request on -wire=bin (the frame-stream wire; 1 = one request per frame)")
	)
	// Self-serve collector spec (only with -addr ""): -spec file.json plus
	// the shared protocol/serving flags as overrides — the same resolution
	// path cmd/dapcollect uses, so the two binaries cannot drift. The
	// default spec serves with epoch warm starts on (serve.warm), the
	// recommended production setting; a -spec file chooses its own.
	sf := specflag.New(fs, core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithServe(core.ServeSpec{Warm: true})))
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns here
	var res served
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return res, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return res, err
		}
		defer pprof.StopCPUProfile()
	}

	base := *addr
	if base != "" && sf.Path() != "" {
		return res, errors.New("-spec configures the self-served collector and needs -addr \"\"")
	}
	// The Byzantine mix's adversary comes from the resolved spec's attack
	// section (self-serve mode) or the bare -attack flag (external
	// collectors). Attack sections are simulation/client-side only, so the
	// spec is stripped of it before the collector boots — the wire rejects
	// attack-bearing tenant specs.
	var advSpec *attack.Spec
	if base == "" {
		sp, err := sf.Resolve()
		if err != nil {
			return res, err
		}
		advSpec = sp.Attack
		sp.Attack = nil
		var closeSrv func()
		base, closeSrv, err = selfServe(sp, *users, *reports, *wire == "udp")
		if err != nil {
			return res, err
		}
		defer closeSrv()
		fmt.Fprintf(stdout, "daploadgen: self-serving collector at %s\n", base)
	} else {
		var err error
		if advSpec, err = sf.Attack(); err != nil {
			return res, err
		}
	}
	// Registered after the self-served collector's close, so it runs
	// before it: the profile shows the memory the collector retains.
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}
	adv, epochs, err := resolveAdversary(fs, advSpec, *atkEps, stdout)
	if err != nil {
		return res, err
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns * 2,
		MaxIdleConnsPerHost: *conns * 2,
	}}
	defer hc.CloseIdleConnections()
	client := transport.NewClient(base, hc)
	if *retries > 0 {
		client.SetRetry(*retries, retryMaxWait)
	}
	c := client.Tenant(*tenant)
	ctx := context.Background()
	cfg, err := c.Config(ctx)
	if err != nil {
		return res, err
	}
	if cfg.Kind != "" && cfg.Kind != "mean" {
		return res, fmt.Errorf("tenant kind %q not supported (mean only)", cfg.Kind)
	}
	// Resolve the ingest wire: the flag wins, then the tenant's advertised
	// preference (spec serve.wire), then JSON.
	w := strings.ToLower(*wire)
	if w == "" {
		w = cfg.Wire
	}
	if w == "" {
		w = "json"
	}
	udpTarget := *udpAddr
	switch w {
	case "json", "bin":
	case "udp":
		if udpTarget == "" {
			udpTarget = cfg.UDPAddr
		}
		if udpTarget == "" {
			return res, errors.New("collector advertises no udp_addr; pass -udp-addr or open the socket")
		}
	default:
		return res, fmt.Errorf("unknown -wire %q (want json, bin or udp)", w)
	}

	entries, honestMean, err := workload(cfg, adv, epochs, *users, *reports, *gamma, *lo, *hi, *seed)
	if err != nil {
		return res, err
	}
	res.HonestMean = honestMean
	var total int
	for _, e := range entries {
		total += len(e.Values)
	}
	fmt.Fprintf(stdout, "daploadgen: %d users, %d reports, γ=%g, %d conns, batch %d, wire %s\n",
		len(entries), total, *gamma, *conns, *batch, w)

	var ingestedBefore float64
	if *scrapeM || w == "udp" {
		if ingestedBefore, err = scrapeIngested(hc, base, *tenant); err != nil {
			return res, fmt.Errorf("scrape /metrics: %w", err)
		}
	}

	runStart := time.Now()
	perBatch := max(*batch, 1)
	perJob := 1
	if w == "bin" {
		perJob = max(*frames, 1)
	}
	accepted, err := drive(entries, *conns, perBatch*perJob, perBatch,
		makeSender(ctx, c, w, udpTarget, *tenant, perBatch, entries))
	if err != nil {
		return res, err
	}
	if w == "udp" {
		// Fire-and-forget wire: wait for the datagrams to drain into the
		// engine and count what actually landed; the difference is loss.
		delivered, err := waitDelivered(func() (float64, error) {
			return scrapeIngested(hc, base, *tenant)
		}, ingestedBefore, accepted)
		if err != nil {
			return res, err
		}
		if delivered < accepted {
			fmt.Fprintf(stdout, "daploadgen: udp loss: %d of %d reports dropped\n", accepted-delivered, accepted)
		}
		accepted = delivered
	}
	res.Acked = accepted
	fmt.Fprintf(stdout, "daploadgen: ingested %d reports in %v (%d retries)\n",
		accepted, time.Since(runStart).Round(time.Millisecond), client.Retries())

	// Seal the epoch so the cached estimate covers what was just sent.
	if _, err := c.Rotate(ctx); err != nil {
		return res, fmt.Errorf("rotate: %w", err)
	}
	if res.Live, err = c.Estimate(ctx, "1"); err != nil {
		return res, fmt.Errorf("live estimate: %w", err)
	}
	res.Cached, err = c.Estimate(ctx, "0")
	fmt.Fprintf(stdout, "daploadgen: live estimate → mean %.4f γ̂ %.3f (epoch %d)\n", res.Live.Mean, res.Live.Gamma, res.Live.Epoch)
	if err != nil {
		return res, fmt.Errorf("no cached per-epoch estimate: %w", err)
	}
	fmt.Fprintf(stdout, "daploadgen: cached per-epoch estimate → mean %.4f (epoch %d)\n", res.Cached.Mean, res.Cached.Epoch)

	if *scrapeM {
		after, err := scrapeIngested(hc, base, *tenant)
		if err != nil {
			return res, fmt.Errorf("scrape /metrics: %w", err)
		}
		serverIngested := after - ingestedBefore
		if serverIngested != float64(accepted) {
			return res, fmt.Errorf("metrics cross-check: server ingested %.0f reports, client acked %d",
				serverIngested, accepted)
		}
		fmt.Fprintf(stdout, "daploadgen: metrics cross-check OK: server ingested %.0f == client acked %d\n",
			serverIngested, accepted)
	}
	return res, sane(res.Live, res.Cached)
}

// writeHeapProfile writes a pprof heap profile to path; a failure is
// logged, not returned, as the run itself has finished.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Print("daploadgen: ", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print("daploadgen: ", err)
	}
}

// retryMaxWait caps the per-retry backoff of -retries.
const retryMaxWait = 2 * time.Second

// selfServe boots an in-process, in-memory collector over a loopback
// listener from the resolved task spec. With wantUDP (or a spec
// serve.udp_addr) the binary-ingest UDP socket is opened too and
// advertised on the config route.
func selfServe(sp core.Spec, users, reports int, wantUDP bool) (string, func(), error) {
	if sp.Serve == nil {
		sp.Serve = &core.ServeSpec{}
	}
	if sp.Serve.ExpectedUsers == 0 {
		est, err := core.Build(sp)
		if err != nil {
			return "", nil, err
		}
		sp.Serve.ExpectedUsers = userCount(users, reports, len(est.Groups()))
	}
	srv, err := transport.NewServerOpts(sp, transport.ServerOptions{})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	var udp *transport.UDPListener
	if uaddr := sp.Serve.UDPAddr; wantUDP || uaddr != "" {
		if uaddr == "" {
			uaddr = "127.0.0.1:0"
		}
		if udp, err = srv.ListenUDP(uaddr); err != nil {
			_ = ln.Close()
			srv.Close()
			return "", nil, err
		}
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	closeFn := func() {
		_ = hs.Close()
		if udp != nil {
			_ = udp.Close()
		}
		srv.Close()
	}
	return "http://" + ln.Addr().String(), closeFn, nil
}

// userCount is the workload's user total: users when set, otherwise the
// users that send about reports reports when they round-robin over h
// groups and group t's users report 2^t times.
func userCount(users, reports, h int) int {
	if users > 0 {
		return users
	}
	return max(reports*h/(1<<h-1), 1)
}

// entry is one user's upload.
type entry = transport.ReportRequest

// resolveAdversary turns a resolved attack spec (nil = default BBA) into
// the adversary driving the Byzantine mix, sizing the workload to the
// attack's own epoch schedule unless -attack-epochs was set explicitly
// on fs.
func resolveAdversary(fs *flag.FlagSet, advSpec *attack.Spec, atkEpochs int, stdout io.Writer) (attack.Adversary, int, error) {
	if advSpec == nil {
		return attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), atkEpochs, nil
	}
	adv, err := attack.New(*advSpec)
	if err != nil {
		return nil, 0, err
	}
	if advSpec.Categorical() {
		return nil, 0, errors.New("categorical attacks cannot drive the mean-task load generator")
	}
	// An epoch-adaptive attack at the default -attack-epochs 1 would stay
	// pinned to its epoch-0 phase (a default ramp never fires); size the
	// workload to the attack's own schedule unless the flag was set
	// explicitly.
	if advSpec.EpochAdaptive() {
		explicit := false
		fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "attack-epochs" {
				explicit = true
			}
		})
		if !explicit {
			atkEpochs = advSpec.EpochSpan()
			fmt.Fprintf(stdout, "daploadgen: attack %q is epoch-adaptive; spanning %d attacker epochs (override with -attack-epochs)\n",
				advSpec.Name, atkEpochs)
		}
	}
	return adv, atkEpochs, nil
}

// workload builds the client mix: users round-robin across groups, honest
// users perturb one value per report slot with the group budget, Byzantine
// users submit the configured adversary's poison (default: BBA high-half).
// The workload spans atkEpochs synthetic attacker epochs — the epoch index
// advances as users are generated and reaches epoch-adaptive attackers
// (ramp, burst) through attack.Env — and users whose adversary emits
// nothing for an epoch (burst off-phase, dropout) stay silent. Returns the
// entries and the honest population's true mean.
func workload(cfg *transport.ConfigResponse, adv attack.Adversary, atkEpochs, users, reports int, gamma, lo, hi float64, seed uint64) ([]entry, float64, error) {
	r := rng.New(seed)
	mechs := make([]*pm.Mechanism, len(cfg.Groups))
	envs := make([]attack.Env, len(cfg.Groups))
	for i, g := range cfg.Groups {
		m, err := pm.New(g.Eps)
		if err != nil {
			return nil, 0, err
		}
		mechs[i] = m
		envs[i] = attack.EnvFor(m, 0)
		envs[i].Group = g.Index
	}
	if atkEpochs < 1 {
		atkEpochs = 1
	}
	// Estimated user total for spreading the epoch index over the run.
	estUsers := userCount(users, reports, len(cfg.Groups))
	var entries []entry
	var honestSum float64
	var honest int
	total := 0
	for i := 0; users > 0 && i < users || users == 0 && total < reports; i++ {
		g := cfg.Groups[i%len(cfg.Groups)]
		var vals []float64
		if gamma > 0 && r.Float64() < gamma {
			env := envs[g.Index]
			if env.Epoch = i * atkEpochs / estUsers; env.Epoch >= atkEpochs {
				env.Epoch = atkEpochs - 1
			}
			vals = adv.Poison(r, env, g.Reports)
			if len(vals) == 0 {
				// Silent colluder this epoch (burst off-phase, dropout): no
				// entry, but the unused slots still count toward the -reports
				// sizing target or an always-silent mix would loop forever.
				total += g.Reports
				continue
			}
		} else {
			v := rng.Uniform(r, lo, hi)
			honestSum += v
			honest++
			vals = make([]float64, g.Reports)
			for k := range vals {
				vals[k] = mechs[g.Index].Perturb(r, v)
			}
		}
		entries = append(entries, entry{User: "lg" + strconv.Itoa(i), Group: g.Index, Values: vals})
		total += len(vals)
	}
	if honest == 0 {
		return entries, 0, nil
	}
	return entries, honestSum / float64(honest), nil
}

// sendFunc uploads one job, the entries [lo, hi), and returns the acked —
// or, on UDP, sent — report count. seq numbers the job's first batch;
// the binary wires number its frames from it. mkSend builds one sender
// per worker, with a closer for its per-connection state (a UDP socket
// with its own sequence); the closer may be nil.
type sendFunc func(seq uint64, lo, hi int) (int, error)

// makeSender builds the per-worker sender factory for the chosen wire.
// All three wires cut jobs into batches of batch users alike; only the
// serialization and transport differ. The bin wire sends a job's batches
// as one frame-stream request, one frame each; json and udp jobs are one
// batch.
func makeSender(ctx context.Context, c *transport.TenantClient, w, udpTarget, tenant string, batch int, entries []entry) func() (sendFunc, func() error, error) {
	// The binary wires reuse the workload's user/value storage; only the
	// entry headers are re-typed, once.
	var wentries []wirebin.Entry
	if w != "json" {
		wentries = make([]wirebin.Entry, len(entries))
		for i, e := range entries {
			wentries[i] = wirebin.Entry{User: e.User, Group: e.Group, Values: e.Values}
		}
	}
	acked := func(res *transport.IngestResponse, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		if res.Rejected > 0 {
			return res.Accepted, fmt.Errorf("collector rejected %d entries: %v", res.Rejected, res.Errors)
		}
		return res.Accepted, nil
	}
	switch w {
	case "bin":
		return func() (sendFunc, func() error, error) {
			var frames [][]wirebin.Entry
			return func(seq uint64, lo, hi int) (int, error) {
				frames = frames[:0]
				for ; lo < hi; lo += batch {
					frames = append(frames, wentries[lo:min(lo+batch, hi)])
				}
				res, err := c.IngestFrames(ctx, seq, frames)
				if err == nil && res.Frames < len(frames) {
					return res.Accepted, fmt.Errorf("collector applied %d of %d frames: %v", res.Frames, len(frames), res.Errors)
				}
				return acked(res, err)
			}, nil, nil
		}
	case "udp":
		// Frames to the default tenant travel without a tenant name; the
		// UDP listener resolves the empty name to the boot tenant.
		if tenant == transport.DefaultTenant {
			tenant = ""
		}
		return func() (sendFunc, func() error, error) {
			uc, err := transport.DialUDP(udpTarget, tenant)
			if err != nil {
				return nil, nil, err
			}
			return func(_ uint64, lo, hi int) (int, error) {
				if _, err := uc.Send(wentries[lo:hi]); err != nil {
					return 0, err
				}
				n := 0
				for i := lo; i < hi; i++ {
					n += len(wentries[i].Values)
				}
				return n, nil
			}, uc.Close, nil
		}
	default:
		return func() (sendFunc, func() error, error) {
			return func(_ uint64, lo, hi int) (int, error) {
				return acked(c.Ingest(ctx, entries[lo:hi]))
			}, nil, nil
		}
	}
}

// drive sends the entries in jobs of jobSize over conns parallel workers
// and returns the accepted report count. A job's seq is the 1-based index
// of its first batch of batch entries.
func drive(entries []entry, conns, jobSize, batch int, mkSend func() (sendFunc, func() error, error)) (int, error) {
	type job struct {
		seq    uint64
		lo, hi int
	}
	var jobs []job
	for lo := 0; lo < len(entries); lo += jobSize {
		jobs = append(jobs, job{uint64(lo/batch + 1), lo, min(lo+jobSize, len(entries))})
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		firstErr error
	)
	record := func(n int, err error) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		accepted += n
		mu.Unlock()
	}
	ch := make(chan job)
	for w := 0; w < max(conns, 1); w++ { // no worker would block the job feed forever
		wg.Add(1)
		go func() {
			defer wg.Done()
			send, closeSend, err := mkSend()
			if err != nil {
				record(0, err)
				for range ch {
				}
				return
			}
			for j := range ch {
				record(send(j.seq, j.lo, j.hi))
			}
			if closeSend != nil {
				record(0, closeSend())
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return accepted, firstErr
}

// waitDelivered polls the collector's monotonic per-tenant ingested
// counter until sent reports have drained from the UDP socket into the
// engine (or delivery stalls for 2s — lost datagrams never arrive). It
// returns how many of the sent reports landed. The status route's window
// counts reset on epoch rotation, so the metric — not the status — is
// the only reliable delivery signal against a rotating collector.
func waitDelivered(poll func() (float64, error), before float64, sent int) (int, error) {
	last, lastChange := -1.0, time.Now()
	for {
		n, err := poll()
		if err != nil {
			return 0, err
		}
		if int(n-before) >= sent {
			return sent, nil
		}
		if n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 2*time.Second {
			return int(n - before), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeIngested fetches the collector's /metrics and returns the
// tenant's dap_stream_reports_ingested_total value (0 when the series
// does not exist yet, e.g. before the first accepted report).
func scrapeIngested(hc *http.Client, base, tenant string) (float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sc, err := metrics.Parse(resp.Body)
	if err != nil {
		return 0, err
	}
	return sc.Value("dap_stream_reports_ingested_total", map[string]string{"tenant": tenant}), nil
}

// sane checks what holds for any traffic: the weights sum to 1, the
// live mean is a finite value in [-1, 1], and the cached estimate comes
// from a sealed epoch. Accuracy against the honest mean depends on the
// traffic (a red-team mix may legitimately break any bound), so it is left
// to the caller that knows the traffic.
func sane(live, cached *transport.EstimateResponse) error {
	var wSum float64
	for _, w := range live.Weights {
		wSum += w
	}
	if math.Abs(wSum-1) > 1e-6 {
		return fmt.Errorf("weights sum to %v", wSum)
	}
	if live.Mean < -1 || live.Mean > 1 || math.IsNaN(live.Mean) {
		return fmt.Errorf("mean %v outside [-1,1]", live.Mean)
	}
	if cached.Epoch < 1 {
		return fmt.Errorf("cached estimate has epoch %d", cached.Epoch)
	}
	return nil
}
