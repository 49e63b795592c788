// Network: runs the HTTP collector on loopback and drives it with
// simulated honest and Byzantine clients, demonstrating the deployment
// path (local perturbation, budget enforcement, server-side estimation).
//
// The collector's default tenant is created from a task spec — the same
// JSON a production deployment would pass to dapcollect -spec — and a
// second tenant is created over the wire from another spec, showing that
// batch estimation, the serving engine and the wire API all consume the
// one Spec shape.
package main

import (
	"context"
	"fmt"
	"net/http/httptest"

	dap "repro"
	"repro/internal/attack"
	"repro/internal/ldp/pm"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
)

func main() {
	sp := dap.NewSpec(dap.Mean(),
		dap.WithBudget(1, 0.25),
		dap.WithScheme(dap.SchemeEMFStar))
	srv, err := transport.NewServerOpts(stream.Config{Spec: sp}, transport.ServerOptions{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	collector := transport.NewClient(ts.URL, ts.Client())
	client := collector.Tenant(transport.DefaultTenant)
	ctx := context.Background()

	cfg, err := client.Config(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("collector at %s: task=%s, ε=%g, %d groups, scheme %s\n\n",
		ts.URL, cfg.Spec.Task, cfg.Eps, len(cfg.Groups), cfg.Scheme)

	r := rng.New(21)
	const n = 4000
	const gamma = 0.2
	nByz := int(gamma * n)

	// Honest devices: values around −0.3, perturbed locally by the client.
	var sum float64
	for i := 0; i < n-nByz; i++ {
		v := r.NormFloat64()*0.25 - 0.3
		if v < -1 {
			v = -1
		}
		if v > 1 {
			v = 1
		}
		sum += v
		if _, err := client.SubmitValue(ctx, r, v); err != nil {
			panic(err)
		}
	}
	trueMean := sum / float64(n-nByz)

	// Byzantine devices: join, then upload poison at the top of their
	// group's output domain.
	adv := dap.NewBBA(dap.RangeHighHalf, dap.DistUniform)
	for i := 0; i < nByz; i++ {
		join, err := client.Join(ctx)
		if err != nil {
			panic(err)
		}
		mech, err := pm.New(join.Group.Eps)
		if err != nil {
			panic(err)
		}
		values := adv.Poison(r, attack.EnvFor(mech, 0), join.Group.Reports)
		if err := client.Report(ctx, join.User, join.Group.Index, values); err != nil {
			panic(err)
		}
	}

	status, err := client.Status(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("collected: %d users, per-group reports %v\n", status.Users, status.GroupReports)

	est, err := client.Estimate(ctx, "")
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntrue mean (honest devices): %+.4f\n", trueMean)
	fmt.Printf("collector estimate:         %+.4f\n", est.Mean)
	fmt.Printf("probed γ̂:                   %.3f (true %.2f)\n", est.Gamma, gamma)
	fmt.Printf("group means %v\nweights     %v\n", est.GroupMeans, est.Weights)

	// A second tenant — frequency estimation — created over the wire from
	// its own spec; the CRUD response echoes the effective spec back.
	created, err := collector.CreateTenantSpec(ctx, "ages",
		dap.NewSpec(dap.Frequency(15), dap.WithBudget(2, 1)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncreated tenant %q: task=%s K=%d (spec round-trips over the wire)\n",
		created.Name, created.Spec.Task, created.Spec.K)
}
