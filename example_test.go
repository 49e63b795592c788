package dap

// Testable examples of the top-level API — they run under `go test` and
// render as documentation in godoc. Each example is deterministic: fixed
// PCG seeds, fixed synthetic populations, rounded output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"

	"repro/internal/attack"
	"repro/internal/ldp/pm"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
)

// exampleValues builds a deterministic honest population: n values evenly
// spread over [lo, hi].
func exampleValues(n int, lo, hi float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return vals
}

// Example_buildFromSpec declares a task as JSON — the same document the
// CLIs (-spec file.json), the wire API and stream tenants consume — and
// builds its estimator.
func Example_buildFromSpec() {
	specJSON := []byte(`{
		"task": "mean",
		"scheme": "cemfstar",
		"eps": 1,
		"eps0": 0.25
	}`)
	sp, err := ParseSpec(specJSON)
	if err != nil {
		panic(err)
	}
	est, err := Build(sp)
	if err != nil {
		panic(err)
	}
	eff := est.Spec()
	fmt.Println("task:   ", eff.Task)
	fmt.Println("scheme: ", eff.Scheme)
	fmt.Println("groups: ", len(est.Groups()))
	// Unknown fields and invalid parameters fail loudly with ErrBadSpec.
	if _, err := ParseSpec([]byte(`{"task": "mean", "eps": -1}`)); err != nil {
		fmt.Println("bad spec rejected")
	}
	// Output:
	// task:    mean
	// scheme:  CEMF*
	// groups:  3
	// bad spec rejected
}

// Example_runUnderAttack simulates a full protocol round in which 25% of
// the users collude, drawn from the attack registry — the same "attack"
// section a JSON spec carries.
func Example_runUnderAttack() {
	sp := NewSpec(Mean(),
		WithBudget(1, 0.25),
		WithScheme(SchemeEMFStar),
		WithAttack(AttackSpec{Name: "bba", Range: "[C/2,C]", Dist: "uniform"}))
	est, err := Build(sp)
	if err != nil {
		panic(err)
	}
	adv, err := sp.Adversary()
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	res, err := est.(Runner).Run(r, exampleValues(8000, -0.5, 0.1), adv, 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Println("attack:       ", adv.Name())
	fmt.Printf("probed side:   right=%v\n", res.PoisonedRight)
	fmt.Printf("probed gamma:  %.2f\n", res.Gamma)
	fmt.Printf("mean error:    %.2f\n", res.Mean-(-0.2))
	// Output:
	// attack:        BBA(right, [0.5,1]·C, Uniform)
	// probed side:   right=true
	// probed gamma:  0.27
	// mean error:    0.07
}

// Example_defenseComparison pits DAP against the trimming comparator on
// the same poisoned population: the opportunistic attacker hugs the
// trimming threshold, so trimming cuts away honest upper-tail reports
// while the poison survives, dragging its estimate far low; DAP's EMF
// reconstruction stays an order of magnitude closer.
func Example_defenseComparison() {
	values := exampleValues(8000, -0.5, 0.1)
	adv, err := NewAttack(AttackSpec{Name: "opportunistic", TrimFrac: 0.5})
	if err != nil {
		panic(err)
	}

	dapEst, err := Build(NewSpec(Mean(), WithBudget(1, 0.25)))
	if err != nil {
		panic(err)
	}
	res, err := dapEst.(Runner).Run(rand.New(rand.NewPCG(3, 4)), values, adv, 0.25)
	if err != nil {
		panic(err)
	}

	trimEst, err := Build(NewSpec(Mean(), WithBudget(1, 0.25),
		WithDefense(DefenseSpec{Name: "trimming"})))
	if err != nil {
		panic(err)
	}
	trim, err := trimEst.(Runner).Run(rand.New(rand.NewPCG(3, 4)), values, adv, 0.25)
	if err != nil {
		panic(err)
	}

	truth := -0.2
	fmt.Printf("dap error:      %.2f\n", res.Mean-truth)
	fmt.Printf("trimming error: %.2f\n", trim.Mean-truth)
	// Output:
	// dap error:      0.07
	// trimming error: -0.80
}

// Example_attackRegistry shows the declarative attack surface: JSON in,
// adversary out, including the composed streaming attackers.
func Example_attackRegistry() {
	var sp AttackSpec
	if err := json.Unmarshal([]byte(`{
		"name": "ramp",
		"frac0": 0.1,
		"epochs": 4,
		"inner": {"name": "bba", "dist": "gaussian"}
	}`), &sp); err != nil {
		panic(err)
	}
	adv, err := NewAttack(sp)
	if err != nil {
		panic(err)
	}
	fmt.Println(adv.Name())
	_, err = NewAttack(AttackSpec{Name: "quantum"})
	fmt.Println("unknown name rejected:", err != nil)
	// Output:
	// Ramp(0.1→1 over 4, BBA(right, [0.5,1]·C, Gaussian))
	// unknown name rejected: true
}

// Example_quickstart defends an LDP mean estimate against colluding
// attackers: 20 000 users hold values around −0.4, 25% of them collude
// and flood the upper half of the perturbation output domain. One Spec
// per scheme describes the task; Build returns its estimator. The same
// Spec, serialized to JSON, drives the collector daemon, the stream
// engine and the CLIs (see specs/).
func Example_quickstart() {
	r := rng.New(1)
	const n = 20000
	values := make([]float64, n)
	var sum float64
	for i := range values {
		values[i] = max(-1, min(1, r.NormFloat64()*0.2-0.4))
		sum += values[i]
	}
	trueMean := sum / n
	adv := NewBBA(RangeHighHalf, DistUniform)
	const gamma = 0.25
	fmt.Printf("true mean of normal users: %+.4f\n", trueMean)

	// Undefended baseline: the same task with the Ostrich comparator.
	naiveEst, err := Build(NewSpec(Mean(), WithDefense(DefenseSpec{Name: "ostrich"})))
	if err != nil {
		panic(err)
	}
	naive, err := naiveEst.(Runner).Run(r, values, adv, gamma)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-12s %+.4f  (error %+.4f)\n", "Ostrich", naive.Mean, naive.Mean-trueMean)

	for _, scheme := range []Scheme{SchemeEMF, SchemeEMFStar, SchemeCEMFStar} {
		est, err := Build(NewSpec(Mean(), WithBudget(1, 1.0/16), WithScheme(scheme)))
		if err != nil {
			panic(err)
		}
		res, err := est.(Runner).Run(r, values, adv, gamma)
		if err != nil {
			panic(err)
		}
		fmt.Printf("DAP/%-8v %+.4f  (error %+.4f, γ̂=%.3f, right=%v)\n",
			scheme, res.Mean, res.Mean-trueMean, res.Gamma, res.PoisonedRight)
	}

	// The spec is plain JSON — what a POST to /v1/tenants carries.
	data, err := json.Marshal(NewSpec(Mean(), WithScheme(SchemeCEMFStar)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("as JSON: %s\n", data)
	// Output:
	// true mean of normal users: -0.4009
	// Ostrich      +0.4792  (error +0.8801)
	// DAP/EMF      -0.4300  (error -0.0291, γ̂=0.255, right=true)
	// DAP/EMF*     -0.3615  (error +0.0394, γ̂=0.256, right=true)
	// DAP/CEMF*    -0.4795  (error -0.0786, γ̂=0.263, right=true)
	// as JSON: {"task":"mean","scheme":"CEMF*","eps":1}
}

// Example_categorical estimates a frequency histogram under k-RR (the
// paper's COVID-19 experiment, Fig. 9(c)(d)): attackers inject 25% of
// the reports into age groups 10–12, and the categorical DAP locates the
// poisoned categories and removes their injected mass.
func Example_categorical() {
	r := rng.New(3)
	cov := COVID19()
	records := cov.Sample(r, 60000)
	poisoned := []int{10, 11, 12}
	est, err := Build(NewSpec(Frequency(cov.K()), WithBudget(1, 1.0/16), WithScheme(SchemeCEMFStar)))
	if err != nil {
		panic(err)
	}
	res, err := est.(CatRunner).RunCats(r, records, poisoned, 0.25)
	if err != nil {
		panic(err)
	}
	fmt.Printf("probed poisoned categories: %v (true: %v)\n", res.PoisonCats, poisoned)
	fmt.Printf("probed injection rate γ̂:    %.1f%% (true 25%%)\n", res.Gamma*100)
	fmt.Println("age group   true    DAP")
	var mse float64
	for j, label := range cov.Labels {
		truth := cov.Freqs()[j]
		mse += (res.Freqs[j] - truth) * (res.Freqs[j] - truth)
		fmt.Printf("%-10s  %.4f  %.4f\n", label, truth, res.Freqs[j])
	}
	fmt.Printf("MSE DAP: %.3e\n", mse/float64(cov.K()))
	// Output:
	// probed poisoned categories: [7 8 9 10 11 12 13 14] (true: [10 11 12])
	// probed injection rate γ̂:    25.7% (true 25%)
	// age group   true    DAP
	// 0-4         0.0003  0.0111
	// 5-14        0.0002  0.0481
	// 15-24       0.0006  0.0196
	// 25-34       0.0021  0.0199
	// 35-44       0.0053  0.0351
	// 45-54       0.0139  0.0299
	// 55-64       0.0342  0.0233
	// 65-74       0.0775  0.0764
	// 75-84       0.1497  0.1696
	// 85+a        0.2111  0.1031
	// 85+b        0.1817  0.1228
	// 85+c        0.1390  0.1211
	// 85+d        0.0962  0.1200
	// 85+e        0.0588  0.0619
	// 85+f        0.0294  0.0380
	// MSE DAP: 1.391e-03
}

// Example_ratingFraud is the paper's motivating scenario: a botnet of
// fake reviewers (20% of the raters) boosts a product's 1–5 star average
// by reporting the top of the perturbation output domain. WithDomain
// declares the star scale, and Spec.ToUnit/FromUnit translate between
// stars and the protocol's [−1, 1] domain.
func Example_ratingFraud() {
	r := rng.New(7)
	sp := NewSpec(Mean(), WithBudget(1, 1.0/16), WithScheme(SchemeCEMFStar), WithDomain(1, 5))
	const n = 50000
	values := make([]float64, n)
	var sum float64
	for i := range values {
		stars := max(1, min(5, 2.8+r.NormFloat64()*0.9))
		values[i] = sp.ToUnit(stars)
		sum += stars
	}
	trueStars := sum / n
	adv := NewBBA(RangeHighQuarter, DistBeta61) // skewed to the extreme top
	const gamma = 0.20
	fmt.Printf("genuine average rating: %.2f stars\n", trueStars)

	// The comparator defenses run as specs too: the same task with a
	// defense in place of the protocol.
	for _, d := range []DefenseSpec{{Name: "ostrich"}, {Name: "trimming", Frac: 0.5, Side: "right"}} {
		est, err := Build(NewSpec(Mean(), WithDomain(1, 5), WithDefense(d)))
		if err != nil {
			panic(err)
		}
		res, err := est.(Runner).Run(r, values, adv, gamma)
		if err != nil {
			panic(err)
		}
		fmt.Printf("platform shows (%-8s):  %.2f stars\n", d.Name, sp.FromUnit(res.Mean))
	}
	est, err := Build(sp)
	if err != nil {
		panic(err)
	}
	res, err := est.(Runner).Run(r, values, adv, gamma)
	if err != nil {
		panic(err)
	}
	fmt.Printf("platform shows (DAP/CEMF*): %.2f stars\n", sp.FromUnit(res.Mean))
	fmt.Printf("estimated bot share γ̂ = %.1f%% (true 20%%)\n", res.Gamma*100)
	// Output:
	// genuine average rating: 2.80 stars
	// platform shows (ostrich ):  4.42 stars
	// platform shows (trimming):  1.00 stars
	// platform shows (DAP/CEMF*): 2.70 stars
	// estimated bot share γ̂ = 20.8% (true 20%)
}

// Example_telemetry streams a device fleet's daily energy readings
// (specs/telemetry.json, kWh in [0, 30]) through the serving engine the
// collector runs: a stream tenant takes two epochs of reports, 15% of
// the fleet runs compromised firmware that deflates the average, and
// each sealed epoch publishes a defended estimate. The metrics registry
// a GET /metrics scrape renders counted all of it; the tenant's counters
// are printed as the change over the run, its gauges as they stand.
func Example_telemetry() {
	r := rng.New(11)
	sp, err := LoadSpec("specs/telemetry.json")
	if err != nil {
		panic(err)
	}
	const devices = 4000
	reg := stream.NewRegistry()
	defer reg.Close()
	scrape := func() *metrics.Scrape {
		reg.SyncMetrics()
		var b bytes.Buffer
		if _, err := metrics.Default().WriteTo(&b); err != nil {
			panic(err)
		}
		sc, err := metrics.Parse(&b)
		if err != nil {
			panic(err)
		}
		return sc
	}
	before := scrape()
	sp.Serve = &ServeSpec{ExpectedUsers: devices, Warm: true}
	t, err := reg.CreateSpec("fleet", sp)
	if err != nil {
		panic(err)
	}
	fmt.Println("group layout (every device spends exactly ε):")
	for _, g := range t.Groups() {
		fmt.Printf("  group %d: ε_t = %-6.4g × %2d reports = %g total\n",
			g.Index, g.Eps, g.Reports, g.Eps*float64(g.Reports))
	}

	const gamma = 0.15
	type device struct {
		user string
		grp  Group
		kwh  float64
		bad  bool
	}
	fleet := make([]device, devices)
	var sum float64
	for i := range fleet {
		user, g := t.Join()
		kwh := min(r.ExpFloat64()*6, sp.Domain.Hi)
		sum += kwh
		fleet[i] = device{user: user, grp: g, kwh: kwh, bad: r.Float64() < gamma}
	}
	// Every device spends its whole ε on one upload, so half the fleet
	// checks in each day; the second day's estimate warm-starts from the
	// first day's fit.
	for epoch := 0; epoch < 2; epoch++ {
		for _, d := range fleet[epoch*devices/2 : (epoch+1)*devices/2] {
			m, err := pm.New(d.grp.Eps)
			if err != nil {
				panic(err)
			}
			values := make([]float64, d.grp.Reports)
			for k := range values {
				if d.bad {
					values[k] = m.OutputDomain().Lo // poison: the most-deflating output
				} else {
					values[k] = m.Perturb(r, sp.ToUnit(d.kwh))
				}
			}
			if err := t.Ingest(d.user, d.grp.Index, values); err != nil {
				panic(err)
			}
		}
		snap, err := t.Rotate()
		if err != nil {
			panic(err)
		}
		fmt.Printf("epoch %d: DAP estimate %.2f kWh (true %.2f), probed γ̂=%.1f%%\n",
			epoch+1, sp.FromUnit(snap.Result.Mean), sum/devices, snap.Result.Gamma*100)
	}

	after := scrape()
	fleetLabel := map[string]string{"tenant": "fleet"}
	for _, name := range []string{
		"dap_stream_reports_ingested_total",
		"dap_stream_epoch_rotations_total",
		"dap_stream_warm_hits_total",
		"dap_privacy_budget_spent_eps",
		"dap_privacy_reporters",
	} {
		v := after.Value(name, fleetLabel)
		if after.Types[name] == "counter" {
			v -= before.Value(name, fleetLabel)
		}
		fmt.Printf("%s{tenant=\"fleet\"} %g\n", name, v)
	}
	// Output:
	// group layout (every device spends exactly ε):
	//   group 0: ε_t = 2      ×  1 reports = 2 total
	//   group 1: ε_t = 1      ×  2 reports = 2 total
	//   group 2: ε_t = 0.5    ×  4 reports = 2 total
	//   group 3: ε_t = 0.25   ×  8 reports = 2 total
	//   group 4: ε_t = 0.125  × 16 reports = 2 total
	// epoch 1: DAP estimate 5.43 kWh (true 5.82), probed γ̂=16.8%
	// epoch 2: DAP estimate 6.48 kWh (true 5.82), probed γ̂=22.1%
	// dap_stream_reports_ingested_total{tenant="fleet"} 24800
	// dap_stream_epoch_rotations_total{tenant="fleet"} 2
	// dap_stream_warm_hits_total{tenant="fleet"} 8
	// dap_privacy_budget_spent_eps{tenant="fleet"} 8000
	// dap_privacy_reporters{tenant="fleet"} 4000
}

// Example_network runs the HTTP collector on loopback and drives it with
// honest clients, which perturb locally before they upload, and
// Byzantine ones, which upload poison at the top of their group's output
// domain. A second tenant is then created over the wire from its own
// spec: batch estimation, the serving engine and the wire API all take
// the one Spec shape.
func Example_network() {
	srv, err := transport.NewServerOpts(NewSpec(Mean(),
		WithBudget(1, 0.25), WithScheme(SchemeEMFStar)), transport.ServerOptions{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	collector := transport.NewClient(ts.URL, ts.Client())
	client := collector.Tenant(transport.DefaultTenant)
	ctx := context.Background()

	r := rng.New(21)
	const n = 4000
	const gamma = 0.2
	nByz := int(gamma * n)
	adv := NewBBA(RangeHighHalf, DistUniform)
	var sum float64
	for i := 0; i < n; i++ {
		join, err := client.Join(ctx)
		if err != nil {
			panic(err)
		}
		mech, err := pm.New(join.Group.Eps)
		if err != nil {
			panic(err)
		}
		var values []float64
		if i < nByz {
			values = adv.Poison(r, attack.EnvFor(mech, 0), join.Group.Reports)
		} else {
			v := max(-1, min(1, r.NormFloat64()*0.25-0.3))
			sum += v
			values = make([]float64, join.Group.Reports)
			for k := range values {
				values[k] = mech.Perturb(r, v)
			}
		}
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
	fmt.Printf("true mean (honest devices): %+.4f\n", sum/float64(n-nByz))
	fmt.Printf("collector estimate:         %+.4f\n", est.Mean)
	fmt.Printf("probed γ̂:                   %.3f (true %.2f)\n", est.Gamma, gamma)
	fmt.Printf("weights:                    %.4f\n", est.Weights)

	created, err := collector.CreateTenantSpec(ctx, "ages", NewSpec(Frequency(15), WithBudget(2, 1)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("created tenant %q: task=%s K=%d\n", created.Name, created.Spec.Task, created.Spec.K)
	// Output:
	// collected: 4000 users, per-group reports [1334 2666 5332]
	// true mean (honest devices): -0.3004
	// collector estimate:         -0.3187
	// probed γ̂:                   0.206 (true 0.20)
	// weights:                    [0.7647 0.1884 0.0469]
	// created tenant "ages": task=frequency K=15
}
