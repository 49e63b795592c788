package dap

// Attack-section tests of the task-spec API: JSON round-trip fidelity
// (a spec's attack section drives the identical adversary after
// marshalling), the ErrBadSpec taxonomy for malformed attack sections,
// the sim-only boundary (stream tenants and the wire reject specs that
// carry an attack), and pinned-seed regressions proving the registry path
// reproduces the pre-registry simulator bit for bit.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/transport"
)

// TestAttackSpecEndToEnd: one JSON spec with an attack section drives the
// same adversary through (1) the batch simulator, (2) the experiment
// harness's spec sweep, and (3) daploadgen's resolution path (attack on
// the client side, stripped before the collector boots — the wire rejects
// it otherwise).
func TestAttackSpecEndToEnd(t *testing.T) {
	specJSON := []byte(`{
		"task": "mean",
		"scheme": "emfstar",
		"eps": 1,
		"eps0": 0.25,
		"attack": {"name": "bba", "range": "[3C/4,C]", "dist": "gaussian"}
	}`)
	sp, err := core.ParseSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}

	// (1) Batch simulation through the spec's adversary equals the direct
	// pre-registry construction at the same seed, bit for bit.
	est, err := core.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := sp.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	vals := testValues(31, 3000)
	got, err := est.(core.Runner).Run(rng.New(41), vals, adv, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	direct := attack.NewBBA(attack.RangeHighQuarter, attack.DistGaussian)
	want, err := est.(core.Runner).Run(rng.New(41), vals, direct, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != want.Mean || got.Gamma != want.Gamma {
		t.Fatalf("spec adversary run (%v,%v) != direct (%v,%v)",
			got.Mean, got.Gamma, want.Mean, want.Gamma)
	}

	// The attack section survives a JSON round trip bit-identically.
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Attack, sp.Attack) {
		t.Fatalf("attack section changed over JSON: %+v != %+v", back.Attack, sp.Attack)
	}

	// (2) The experiment harness sweeps the spec's adversary (the table
	// title names it).
	tables, err := bench.SpecSweep(bench.Config{N: 800, Trials: 1, Seed: 1, EMFMaxIter: 60, Spec: &sp})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].Title, direct.Name()) {
		t.Fatalf("spec sweep title %q does not name the adversary %q", tables[0].Title, direct.Name())
	}

	// (3) daploadgen's split: the attack section stays on the client side;
	// the serving side only accepts the spec once it is stripped.
	if _, err := stream.NewTenantSpec("redteam", sp); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("stream tenant on an attack-bearing spec: %v, want ErrBadSpec", err)
	}
	served := sp
	served.Attack = nil
	if _, err := stream.NewTenantSpec("redteam", served); err != nil {
		t.Fatalf("stripped spec rejected: %v", err)
	}
}

// TestAttackSpecTaxonomy: malformed attack sections wrap ErrBadSpec.
func TestAttackSpecTaxonomy(t *testing.T) {
	bad := []core.Spec{
		// Unknown registry name.
		{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "quantum"}},
		// Bad parameters inside a known attack.
		{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "bba", Range: "[C,2C]"}},
		{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "dropout", Inner: &attack.Spec{Name: "nope"}}},
		// Categorical attack on a numeric task and vice versa.
		{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "maxgain"}},
		{Task: core.TaskFrequency, Eps: 1, K: 8, Attack: &attack.Spec{Name: "bba"}},
	}
	for _, sp := range bad {
		if _, err := core.Build(sp); !errors.Is(err, core.ErrBadSpec) {
			t.Fatalf("spec %+v: err = %v, want ErrBadSpec", sp, err)
		}
	}
	// Unknown registry names keep attack.ErrUnknown in the chain, so
	// callers can branch on the specific failure.
	_, err := core.Build(core.Spec{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "quantum"}})
	if !errors.Is(err, attack.ErrUnknown) {
		t.Fatalf("unknown attack name: %v, want attack.ErrUnknown in the chain", err)
	}
	// "none" fits every task.
	for _, sp := range []core.Spec{
		{Task: core.TaskMean, Eps: 1, Attack: &attack.Spec{Name: "none"}},
		{Task: core.TaskFrequency, Eps: 1, K: 8, Attack: &attack.Spec{Name: "none"}},
	} {
		if _, err := core.Build(sp); err != nil {
			t.Fatalf("spec %+v rejected: %v", sp, err)
		}
	}
}

// TestAttackSpecRejectedAtWire: POST /v1/tenants with an attack-bearing
// spec fails loudly — attacks are simulation-only and never cross the
// wire, mirroring the defense comparators.
func TestAttackSpecRejectedAtWire(t *testing.T) {
	srv, err := transport.NewServerOpts(core.NewSpec(core.MeanTask()), transport.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := transport.NewClient(ts.URL, ts.Client())
	sp := core.NewSpec(core.MeanTask(), core.WithAttack(attack.Spec{Name: "bba"}))
	if _, err := client.CreateTenantSpec(context.Background(), "evil", sp); err == nil {
		t.Fatal("wire accepted an attack-bearing tenant spec")
	}
}

// TestFreqRegistryPathPinnedSeed: the categorical adversary path
// reproduces the historical CollectFreq collection bit for bit — the
// regression gate for rebuilding the frequency simulator on the registry.
func TestFreqRegistryPathPinnedSeed(t *testing.T) {
	d := buildAs[catCollector](t, core.NewSpec(core.FrequencyTask(12), core.WithBudget(1, 0.25),
		core.WithScheme(core.SchemeCEMFStar), core.WithEMFMaxIter(80)))
	cats := make([]int, 2000)
	r := rng.New(55)
	for i := range cats {
		cats[i] = r.IntN(12)
	}
	poison := []int{3, 11}
	legacy, err := d.CollectFreq(rng.New(56), cats, &attack.Targeted{Cats: poison}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := attack.New(attack.Spec{Name: "targeted", Cats: poison})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := d.CollectFreq(rng.New(56), cats, viaRegistry, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Counts, reg.Counts) {
		t.Fatal("registry-built targeted attack diverges from the legacy CollectFreq path")
	}
	// The poison-category entry point (CatRunner) is the same round.
	legacyRun, err := d.(core.CatRunner).RunCats(rng.New(56), cats, poison, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	regRun, err := d.(core.CatAdvRunner).RunCatsAdv(rng.New(56), cats, viaRegistry, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacyRun, regRun) {
		t.Fatal("registry-built targeted round diverges from the RunCats path")
	}
	// Out-of-range categories from a numeric adversary fail with ErrDomain.
	if _, err := d.CollectFreq(rng.New(57), cats, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform), 0.3); !errors.Is(err, core.ErrDomain) {
		t.Fatalf("numeric poison through the categorical path: %v, want ErrDomain", err)
	}
}

// TestRegistrySimBehaviour: each numeric registry attack runs a full
// protocol round identically to its directly-constructed counterpart.
func TestRegistrySimBehaviour(t *testing.T) {
	cases := []struct {
		spec   attack.Spec
		direct attack.Adversary
	}{
		{attack.Spec{Name: "bba"}, attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)},
		{attack.Spec{Name: "ima"}, &attack.IMA{G: -1}},
		{attack.Spec{Name: "evasion", A: 0.3}, &attack.Evasion{A: 0.3}},
		{attack.Spec{Name: "opportunistic"}, &attack.Opportunistic{TrimFrac: 0.5}},
	}
	d := buildAs[core.Runner](t, core.NewSpec(core.MeanTask(), core.WithBudget(1, 0.25),
		core.WithScheme(core.SchemeEMFStar), core.WithEMFMaxIter(80)))
	vals := testValues(61, 2000)
	for _, tc := range cases {
		adv, err := attack.New(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		got, err := d.Run(rng.New(62), vals, adv, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		want, err := d.Run(rng.New(62), vals, tc.direct, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		if got.Mean != want.Mean || got.Gamma != want.Gamma || got.PoisonedRight != want.PoisonedRight {
			t.Fatalf("%s: registry round (%v,%v) != direct (%v,%v)",
				tc.spec.Name, got.Mean, got.Gamma, want.Mean, want.Gamma)
		}
	}
}
