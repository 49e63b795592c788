// Package dap is the public API of this repository: a Go implementation
// of "Differential Aggregation against General Colluding Attackers"
// (Du, Ye, Fu, Hu, Li, Fang, Shi — ICDE 2023).
//
// # What it does
//
// Local differential privacy (LDP) protocols assume users perturb their
// data honestly. Colluding Byzantine users can instead submit arbitrary
// poison values inside the perturbation output domain and drag the
// collector's mean estimate. DAP defends mean estimation without trying
// to detect individual poison values: an Expectation-Maximization Filter
// (EMF) statistically reconstructs the attackers' population γ, poisoned
// side and poison-value histogram, and the collector removes that
// collective mass. A multi-group design (each group gets a random budget
// ε_t; smaller-budget groups report more often so everyone spends exactly
// ε) prevents attackers from telling probing reports from estimation
// reports, and a variance-optimal weighting recombines the per-group
// means.
//
// # Quick start
//
// A task is described by one declarative, JSON-serializable Spec; Build
// returns its Estimator:
//
//	sp := dap.NewSpec(dap.Mean(),
//	    dap.WithBudget(1, 1.0/16),
//	    dap.WithScheme(dap.SchemeCEMFStar))
//	est, _ := dap.Build(sp)
//	res, _ := est.(dap.Runner).Run(rand.New(rand.NewPCG(1, 2)), values, // values in [-1, 1]
//	    dap.NewBBA(dap.RangeHighHalf, dap.DistUniform), 0.25)
//	fmt.Println(res.Mean, res.Gamma, res.PoisonedRight)
//
// Five task kinds share the surface — Mean over PM, Distribution over
// SW, Frequency over k-RR, Variance (split populations) and the §IV
// Baseline — plus the comparator defenses (ostrich, trimming, kmeans,
// boxplot, iforest) selected by name with WithDefense. Every estimator
// implements Estimate (raw per-group reports) and EstimateHist (the
// histogram sufficient statistic the serving layer maintains); the
// unified Result carries whichever fields the task produces. Malformed
// specs fail with ErrBadSpec, out-of-domain values with ErrDomain, and
// exhausted privacy budgets with ErrBudgetExhausted.
//
// The same Spec serializes to JSON and drives everything else: a specs/
// directory of examples feeds the CLIs (-spec file.json, flags as
// overrides), POST /v1/tenants accepts {"name": ..., "spec": {...}} and
// returns the effective spec, and a spec's optional "serve" section
// (buckets, shards, epoch windows) configures its stream tenant. One
// end-to-end test pins the invariant: the same JSON spec estimates
// identically (≤1e-12) through batch Estimate, a stream tenant and the
// wire API.
//
// # Attacks
//
// The threat side mirrors the defense side: a declarative AttackSpec
// (name + parameters, JSON-serializable) selects an adversary from the
// registry via NewAttack, and a Spec's optional "attack" section carries
// it through every simulation face — dapbench -exp one and -exp spec,
// the dapbench -exp matrix robustness matrix, and daploadgen's Byzantine
// client mix. Registered families (AttackNames lists them): the paper's threat
// models — bba (Definition 4), gba (Definition 2), ima (input
// manipulation), evasion (§V-D), opportunistic (the §I trimming
// critique), swtop (Fig. 8) — plus categorical injection for the
// frequency task (targeted, maxgain), in-range distribution poisoning
// for SW (distpoison), and composable wrappers: dropout (colluder
// dropout), hetero (heterogeneous per-group collusion fractions), and
// the epoch-adaptive streaming attackers ramp and burst, which key on
// the attack.Env group/epoch context: the collectors provide the group
// index, and daploadgen's client mix advances the epoch
// (-attack-epochs). One-shot batch collections run at epoch 0, so the
// epoch-less harnesses refuse (dapbench -exp spec, -exp matrix extras)
// or flag (dapbench -exp one) epoch-adaptive attacks instead of
// tabulating their weakened epoch-0 phase. Wrappers nest ("ramp" over "bba" over any
// range); unknown names fail with ErrUnknownAttack, wrapped into
// ErrBadSpec at spec validation.
//
// Attack sections are simulation/client-side only: stream tenants and
// the wire reject specs that carry them, so a red-team spec can never
// configure a production tenant. Adversaries are deterministic for a
// fixed rng stream, which is what keeps registry-driven experiments
// reproducible seed-for-seed with the direct constructions (pinned by
// tests).
//
// # Performance engine
//
// The EM hot path runs on a structured ("banded") representation of the
// transform matrix: every mechanism here perturbs by sampling uniformly
// from a band, so each matrix column is a constant tail plus a contiguous
// band whose interior carries one shared value, and an EM iteration costs
// O(D + D′) via prefix sums instead of the dense O(D·D′) (internal/emf,
// banded.go). Transform matrices are cached per (mechanism, d, d′), EM
// state buffers are pooled, the h per-group fits of an estimate run on
// goroutines, and the experiment harness (internal/bench) evaluates
// Monte-Carlo cells concurrently. The bench Config.Workers field caps the
// number of concurrently evaluated cells (0 selects GOMAXPROCS); tables
// are byte-identical for every Workers value and GOMAXPROCS because each
// cell and trial owns a fixed rng stream and results are collected in
// table order. cmd/dapbench exposes the same knob as -workers.
//
// # Serving layer
//
// internal/stream turns the one-shot batch collector into a long-lived
// service. Reports are never stored: ingestion discretizes each report
// into the mechanism's output buckets (ldp.Discretizer, index-compatible
// with the batch histogramming) and increments a lock-striped per-group
// count histogram, so memory is O(shards·h·d′) and concurrent ingests do
// not serialize. Epoch windows — tumbling or sliding over the last Span
// epochs — seal the live shards on rotation and re-estimate the window
// through EstimateHist, the histogram entry point of the estimation
// pipeline, caching the result so reads are pointer loads. A tenant
// registry hosts many concurrent aggregations (mean/PM, frequency/k-RR,
// distribution/SW), each with its own parameters, privacy accountant and
// epoch clock. The load-bearing invariant, enforced by tests: the
// per-group output histogram plus the exact report sum is a sufficient
// statistic, so histogram-fed estimates reproduce the batch Estimate bit
// for bit on the same reports (under AutoOPrime the Theorem 2 trimmed
// mean substitutes bucket centers for sorted raw reports — agreement
// there is to within a bucket width, not bit-exact).
//
// internal/transport serves the engine over HTTP: every data route is
// under /v1/tenants/{tenant}/... (a collector boots with one tenant,
// "default"), beside tenant CRUD, epoch rotation and a batched ingest
// endpoint. Budgets are charged atomically before any
// state changes; NaN/Inf, out-of-domain values and bucket-index abuse are
// rejected at the wire boundary. cmd/dapcollect runs it with graceful
// shutdown; cmd/daploadgen drives it with honest+Byzantine client mixes
// and checks the estimates it serves back.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure, and
// benchmark/README.md for how speed is measured.
package dap
