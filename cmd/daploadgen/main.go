// Command daploadgen drives a running DAP collector with a configurable
// honest+Byzantine client mix and checks what the collector serves back.
// It is a traffic source and a smoke test, not a measuring instrument:
// speed is measured by the repository benchmark (benchmark/).
//
// Usage:
//
//	daploadgen -addr http://localhost:8080 -users 10000 -gamma 0.1 -conns 8
//	daploadgen -addr "" -reports 10000 -epoch 150ms -assert
//
// With -addr "" the generator boots an in-process collector over a real
// loopback HTTP listener (the full wire stack, no external process) —
// that is the CI smoke mode. Honest users perturb locally with their
// assigned group's budget, exactly like real clients; Byzantine users
// submit high-half poison values. Reports travel in batched
// POST /v1/tenants/{tenant}/ingest requests of -batch users each (-tenant
// picks the tenant, "default" unless given).
//
// After ingest the epoch is sealed and the live and cached estimates are
// read back. -assert fails the run unless a sane per-epoch estimate is
// served. -scrape-metrics scrapes the collector's /metrics before and
// after the run and fails unless the server-side ingest counter delta for
// the tenant matches the client-side acked report count — an end-to-end
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
	"flag"
	"fmt"
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
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8080", "collector base URL; empty boots an in-process collector")
		tenant  = flag.String("tenant", transport.DefaultTenant, "tenant to drive")
		users   = flag.Int("users", 0, "users to simulate (0 = derive from -reports)")
		reports = flag.Int("reports", 10000, "target total report count (used when -users is 0)")
		conns   = flag.Int("conns", 4, "concurrent sender connections")
		batch   = flag.Int("batch", 200, "users per ingest request")
		gamma   = flag.Float64("gamma", 0, "Byzantine user fraction")
		atkEps  = flag.Int("attack-epochs", 1, "attacker epochs the workload spans (drives epoch-adaptive attacks like ramp and burst)")
		lo      = flag.Float64("lo", -0.5, "honest value range low")
		hi      = flag.Float64("hi", 0.1, "honest value range high")
		seed    = flag.Uint64("seed", 1, "workload rng seed")
		assert  = flag.Bool("assert", false, "fail unless a sane per-epoch estimate is served")
		retries = flag.Int("retries", 0, "retry transient failures (network errors, 5xx) up to this many times per request")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
		scrapeM = flag.Bool("scrape-metrics", false, "scrape the collector's /metrics before and after the run and fail unless the server-side ingest counter delta matches the client-side acked count")
		wire    = flag.String("wire", "", "ingest wire: json | bin (binary frames over HTTP) | udp (binary frames over UDP); empty follows the tenant's advertised preference")
		udpAddr = flag.String("udp-addr", "", "UDP ingest socket address for -wire=udp (empty uses the collector's advertised udp_addr)")
		frames  = flag.Int("frames", 8, "frames coalesced per HTTP request on -wire=bin (the frame-stream wire; 1 = one request per frame)")
	)
	// Self-serve collector spec (only with -addr ""): -spec file.json plus
	// the shared protocol/serving flags as overrides — the same resolution
	// path cmd/dapcollect uses, so the two binaries cannot drift. The
	// default spec serves with epoch warm starts on (serve.warm), the
	// recommended production setting; a -spec file chooses its own.
	sf := specflag.New(flag.CommandLine, core.NewSpec(core.MeanTask(),
		core.WithBudget(1, 0.25), core.WithScheme(core.SchemeEMFStar),
		core.WithServe(core.ServeSpec{Warm: true})))
	flag.Parse()
	// Profiles are flushed through stopProfiles rather than defers: the
	// failure paths below exit the process, and os.Exit would otherwise
	// discard the profile exactly when a failing run is being profiled.
	var profileStops []func()
	stopProfiles := func() {
		for i := len(profileStops) - 1; i >= 0; i-- {
			profileStops[i]()
		}
		profileStops = nil
	}
	fatal := func(args ...any) {
		stopProfiles()
		log.Fatal(append([]any{"daploadgen: "}, args...)...)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		profileStops = append(profileStops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProf != "" {
		profileStops = append(profileStops, func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Print("daploadgen: ", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print("daploadgen: ", err)
			}
		})
	}

	base := *addr
	if base != "" && sf.Path() != "" {
		fatal("-spec configures the self-served collector and needs -addr \"\"")
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
			fatal(err)
		}
		advSpec = sp.Attack
		sp.Attack = nil
		var closeSrv func()
		base, closeSrv, err = selfServe(sp, *users, *reports, *wire == "udp")
		if err != nil {
			fatal(err)
		}
		defer closeSrv()
		fmt.Printf("daploadgen: self-serving collector at %s\n", base)
	} else {
		var err error
		if advSpec, err = sf.Attack(); err != nil {
			fatal(err)
		}
	}
	adv, epochs := resolveAdversary(advSpec, *atkEps, fatal)
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conns * 2,
		MaxIdleConnsPerHost: *conns * 2,
	}}
	client := transport.NewClient(base, hc)
	if *retries > 0 {
		client.SetRetry(*retries, retryMaxWait)
	}
	c := client.Tenant(*tenant)
	ctx := context.Background()
	cfg, err := c.Config(ctx)
	if err != nil {
		fatal(err)
	}
	if cfg.Kind != "" && cfg.Kind != "mean" {
		fatal(fmt.Sprintf("tenant kind %q not supported (mean only)", cfg.Kind))
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
			fatal("collector advertises no udp_addr; pass -udp-addr or open the socket")
		}
	default:
		fatal(fmt.Sprintf("unknown -wire %q (want json, bin or udp)", w))
	}

	entries, honestMean := workload(cfg, adv, epochs, *users, *reports, *gamma, *lo, *hi, *seed)
	var total int
	for _, e := range entries {
		total += len(e.Values)
	}
	fmt.Printf("daploadgen: %d users, %d reports, γ=%g, %d conns, batch %d, wire %s\n",
		len(entries), total, *gamma, *conns, *batch, w)

	var ingestedBefore float64
	if *scrapeM || w == "udp" {
		if ingestedBefore, err = scrapeIngested(hc, base, *tenant); err != nil {
			fatal("scrape /metrics: ", err)
		}
	}

	runStart := time.Now()
	accepted, err := drive(entries, *conns, *batch, makeSender(ctx, c, w, udpTarget, *tenant, *frames, entries))
	if err != nil {
		fatal(err)
	}
	if w == "udp" {
		// Fire-and-forget wire: wait for the datagrams to drain into the
		// engine and count what actually landed; the difference is loss.
		delivered, derr := waitDelivered(func() (float64, error) {
			return scrapeIngested(hc, base, *tenant)
		}, ingestedBefore, accepted)
		if derr != nil {
			fatal(derr)
		}
		if delivered < accepted {
			fmt.Printf("daploadgen: udp loss: %d of %d reports dropped\n", accepted-delivered, accepted)
		}
		accepted = delivered
	}
	fmt.Printf("daploadgen: ingested %d reports in %v (%d retries)\n",
		accepted, time.Since(runStart).Round(time.Millisecond), client.Retries())

	// Seal the epoch so the cached estimate covers what was just sent.
	if _, err := c.Rotate(ctx); err != nil {
		fatal("rotate: ", err)
	}
	live, err := c.Estimate(ctx, "1")
	if err != nil {
		fatal("live estimate: ", err)
	}
	cached, cachedErr := c.Estimate(ctx, "0")
	fmt.Printf("daploadgen: live estimate → mean %.4f γ̂ %.3f (epoch %d)\n", live.Mean, live.Gamma, live.Epoch)
	if cachedErr == nil {
		fmt.Printf("daploadgen: cached per-epoch estimate → mean %.4f (epoch %d)\n", cached.Mean, cached.Epoch)
	}

	failed := false
	if *scrapeM {
		after, err := scrapeIngested(hc, base, *tenant)
		if err != nil {
			fatal("scrape /metrics: ", err)
		}
		if serverIngested := after - ingestedBefore; serverIngested != float64(accepted) {
			fmt.Printf("daploadgen: FAIL metrics cross-check: server ingested %.0f reports, client acked %d\n",
				serverIngested, accepted)
			failed = true
		} else {
			fmt.Printf("daploadgen: metrics cross-check OK: server ingested %.0f == client acked %d\n",
				serverIngested, accepted)
		}
	}
	if *assert {
		if err := sane(live, cached, cachedErr, honestMean, *gamma); err != nil {
			fmt.Printf("daploadgen: FAIL %v\n", err)
			failed = true
		} else {
			fmt.Println("daploadgen: estimate sanity OK")
		}
	}
	stopProfiles()
	if failed {
		os.Exit(1)
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
		expected := users
		if expected == 0 {
			// Mirror workload sizing: users round-robin over the h groups and
			// group t's users report 2^t times, so -reports total reports come
			// from about reports·h/(2^h−1) users.
			h := int(math.Ceil(math.Log2(sp.Eps/sp.Eps0)-1e-12)) + 1
			expected = reports * h / (1<<h - 1)
		}
		sp.Serve.ExpectedUsers = expected
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

// entry is one user's upload.
type entry = transport.ReportRequest

// workload builds the client mix: users round-robin across groups, honest
// users perturb one value per report slot with the group budget, Byzantine
// users submit the configured adversary's poison (default: BBA high-half).
// The workload spans atkEpochs synthetic attacker epochs — the epoch index
// advances as users are generated and reaches epoch-adaptive attackers
// (ramp, burst) through attack.Env — and users whose adversary emits
// nothing for an epoch (burst off-phase, dropout) stay silent. Returns the
// entries and the honest population's true mean.
// resolveAdversary turns a resolved attack spec (nil = default BBA) into
// the adversary driving the Byzantine mix, sizing the workload to the
// attack's own epoch schedule unless -attack-epochs was set explicitly.
func resolveAdversary(advSpec *attack.Spec, atkEpochs int, fatal func(args ...any)) (attack.Adversary, int) {
	adv := attack.Adversary(attack.NewBBA(attack.RangeHighHalf, attack.DistUniform))
	epochs := atkEpochs
	if advSpec != nil {
		var err error
		if adv, err = attack.New(*advSpec); err != nil {
			fatal(err)
		}
		if advSpec.Categorical() {
			fatal("categorical attacks cannot drive the mean-task load generator")
		}
		// An epoch-adaptive attack at the default -attack-epochs 1 would
		// stay pinned to its epoch-0 phase (a default ramp never fires);
		// size the workload to the attack's own schedule unless the flag
		// was set explicitly.
		if advSpec.EpochAdaptive() {
			explicit := false
			flag.Visit(func(fl *flag.Flag) {
				if fl.Name == "attack-epochs" {
					explicit = true
				}
			})
			if !explicit {
				epochs = advSpec.EpochSpan()
				fmt.Printf("daploadgen: attack %q is epoch-adaptive; spanning %d attacker epochs (override with -attack-epochs)\n",
					advSpec.Name, epochs)
			}
		}
	}
	return adv, epochs
}

func workload(cfg *transport.ConfigResponse, adv attack.Adversary, atkEpochs, users, reports int, gamma, lo, hi float64, seed uint64) ([]entry, float64) {
	r := rng.New(seed)
	mechs := make([]*pm.Mechanism, len(cfg.Groups))
	envs := make([]attack.Env, len(cfg.Groups))
	for i, g := range cfg.Groups {
		m, err := pm.New(g.Eps)
		if err != nil {
			log.Fatal("daploadgen: ", err)
		}
		mechs[i] = m
		envs[i] = attack.EnvFor(m, 0)
		envs[i].Group = g.Index
	}
	if atkEpochs < 1 {
		atkEpochs = 1
	}
	// Estimated user total for spreading the epoch index over the run;
	// mirrors selfServe's sizing when -users is 0.
	estUsers := users
	if estUsers == 0 {
		h := len(cfg.Groups)
		if estUsers = reports * h / (1<<h - 1); estUsers < 1 {
			estUsers = 1
		}
	}
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
		return entries, 0
	}
	return entries, honestSum / float64(honest)
}

// sendFunc uploads the batch entries[lo:hi] (seq identifies the frame on
// the binary wires) and returns the acked — or, on UDP, sent — report
// count. A sender may coalesce batches (the frame-stream wire): a call
// that only buffers returns (0, nil) and the worker's closer flushes the
// tail, returning what it acked. mkSend builds one sender per worker, so
// per-connection state (a UDP socket with its own sequence, a pending
// frame buffer) stays unshared.
type sendFunc func(seq uint64, lo, hi int) (int, error)

// makeSender builds the per-worker sender factory for the chosen wire.
// All three wires batch identically; only the serialization and transport
// differ. On the bin wire, frames consecutive batches ride one HTTP
// request as a length-prefixed frame stream.
func makeSender(ctx context.Context, c *transport.TenantClient, w, udpTarget, tenant string, frames int, entries []entry) func() (sendFunc, func() (int, error), error) {
	// The binary wires reuse the workload's user/value storage; only the
	// entry headers are re-typed, once.
	var wentries []wirebin.Entry
	if w != "json" {
		wentries = make([]wirebin.Entry, len(entries))
		for i, e := range entries {
			wentries[i] = wirebin.Entry{User: e.User, Group: e.Group, Values: e.Values}
		}
	}
	noFlush := func() (int, error) { return 0, nil }
	switch w {
	case "bin":
		if frames < 1 {
			frames = 1
		}
		return func() (sendFunc, func() (int, error), error) {
			pend := make([][]wirebin.Entry, 0, frames)
			var seqBase uint64
			flush := func() (int, error) {
				if len(pend) == 0 {
					return 0, nil
				}
				res, err := c.IngestFrames(ctx, seqBase, pend)
				pend = pend[:0]
				if err != nil {
					return 0, err
				}
				if res.Rejected > 0 {
					return res.Accepted, fmt.Errorf("collector rejected %d entries: %v", res.Rejected, res.Errors)
				}
				return res.Accepted, nil
			}
			send := func(seq uint64, lo, hi int) (int, error) {
				if len(pend) == 0 {
					seqBase = seq
				}
				pend = append(pend, wentries[lo:hi])
				if len(pend) < frames {
					return 0, nil
				}
				return flush()
			}
			return send, flush, nil
		}
	case "udp":
		// Frames to the default tenant travel without a tenant name; the
		// UDP listener resolves the empty name to the boot tenant.
		if tenant == transport.DefaultTenant {
			tenant = ""
		}
		return func() (sendFunc, func() (int, error), error) {
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
				}, func() (int, error) {
					return 0, uc.Close()
				}, nil
		}
	default:
		return func() (sendFunc, func() (int, error), error) {
			return func(_ uint64, lo, hi int) (int, error) {
				res, err := c.Ingest(ctx, entries[lo:hi])
				if err != nil {
					return 0, err
				}
				if res.Rejected > 0 {
					return res.Accepted, fmt.Errorf("collector rejected %d entries: %v", res.Rejected, res.Errors)
				}
				return res.Accepted, nil
			}, noFlush, nil
		}
	}
}

// drive sends the entries in batches over conns parallel workers and
// returns the accepted report count.
func drive(entries []entry, conns, batch int, mkSend func() (sendFunc, func() (int, error), error)) (int, error) {
	if batch < 1 {
		batch = 1
	}
	type job struct {
		seq    uint64
		lo, hi int
	}
	var jobs []job
	for lo := 0; lo < len(entries); lo += batch {
		jobs = append(jobs, job{uint64(len(jobs) + 1), lo, min(lo+batch, len(entries))})
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
	for w := 0; w < conns; w++ {
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
			// The closer flushes any batches still pending in a coalescing
			// sender (and releases the connection).
			record(closeSend())
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

// sane validates the served estimates.
func sane(live, cached *transport.EstimateResponse, cachedErr error, honestMean, gamma float64) error {
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
	if gamma == 0 && math.Abs(live.Mean-honestMean) > 0.35 {
		return fmt.Errorf("no-attack mean %v far from truth %v", live.Mean, honestMean)
	}
	if gamma > 0 && math.Abs(live.Mean-honestMean) > 0.5 {
		return fmt.Errorf("attacked mean %v implausibly far from truth %v", live.Mean, honestMean)
	}
	if cachedErr != nil {
		return fmt.Errorf("no cached per-epoch estimate: %v", cachedErr)
	}
	if cached.Epoch < 1 {
		return fmt.Errorf("cached estimate has epoch %d", cached.Epoch)
	}
	return nil
}
