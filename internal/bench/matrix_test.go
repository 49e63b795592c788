package bench

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/rng"
)

// matrixTestConfig keeps the matrix cells sub-second.
func matrixTestConfig() Config {
	return Config{N: 4000, Trials: 2, Seed: 1, EMFMaxIter: 120}
}

// TestMatrixCoverage pins the acceptance shape: at least 8 attack
// variants, every scheme, both task panels, and the γ conventions.
func TestMatrixCoverage(t *testing.T) {
	rep, err := RunMatrix(matrixTestConfig(), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	attacks := map[string]bool{}
	schemes := map[string]bool{}
	tasks := map[string]bool{}
	for _, row := range rep.Rows {
		attacks[row.Attack] = true
		schemes[row.Scheme] = true
		tasks[row.Task] = true
		wantGamma := 0.25
		if strings.Contains(row.Attack, "none") {
			wantGamma = 0
		}
		if row.Gamma != wantGamma {
			t.Errorf("%s/%s: gamma %g, want %g", row.Attack, row.Scheme, row.Gamma, wantGamma)
		}
		if math.IsNaN(row.MSE) || row.MSE < 0 {
			t.Errorf("%s/%s: bad MSE %v", row.Attack, row.Scheme, row.MSE)
		}
	}
	if len(attacks) < 8 {
		t.Fatalf("matrix covers %d attack variants, want >= 8", len(attacks))
	}
	if len(schemes) != len(core.Schemes()) {
		t.Fatalf("matrix covers %d schemes, want %d", len(schemes), len(core.Schemes()))
	}
	if !tasks["mean"] || !tasks["frequency"] {
		t.Fatalf("matrix tasks %v, want mean and frequency panels", tasks)
	}
}

// TestMatrixBBARowMatchesDirect pins the registry path against the
// pre-registry simulator: the bba[C/2,C] row must reproduce, bit for bit,
// the MSE of directly-constructed BBA collections at equal seeds — the
// invariant that keeps matrix rows comparable with dapbench -exp one and
// the Fig. 6 tables.
func TestMatrixBBARowMatchesDirect(t *testing.T) {
	cfg := matrixTestConfig()
	const gamma = 0.25
	rep, err := RunMatrix(cfg, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := loadDataset(cfg, "Beta(2,5)")
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.TrueMean()
	daps, err := perScheme(cfg.spec(core.MeanTask(), 1))
	if err != nil {
		t.Fatal(err)
	}
	adv := attack.NewBBA(attack.RangeHighHalf, attack.DistUniform)
	// bba[C/2,C] is battery index 1; reproduce its exact seed schedule.
	seed := cfg.Seed + 0xA77AC0 + 1*0x1000
	want := make([]float64, len(daps))
	for j := 0; j < cfg.Trials; j++ {
		r := rng.Split(seed, uint64(j))
		col, err := daps[0].(core.Collector).Collect(r, ds.Values, adv, gamma)
		if err != nil {
			t.Fatal(err)
		}
		var warm *core.WarmState
		for i, d := range daps {
			est, err := d.Estimate(core.WithWarm(context.Background(), warm), col)
			if err != nil {
				t.Fatal(err)
			}
			if warm == nil {
				warm = est.Warm
			}
			want[i] += (est.Mean - truth) * (est.Mean - truth)
		}
	}
	schemes := core.Schemes()
	for i := range want {
		want[i] /= float64(cfg.Trials)
		found := false
		for _, row := range rep.Rows {
			if row.Attack == "bba[C/2,C]" && row.Scheme == schemes[i].String() {
				found = true
				if row.MSE != want[i] {
					t.Errorf("bba/%s: matrix MSE %v != direct %v", schemes[i], row.MSE, want[i])
				}
			}
		}
		if !found {
			t.Errorf("no bba[C/2,C] row for scheme %s", schemes[i])
		}
	}
}

// TestMatrixMarkdownAndTables smoke-renders both report shapes.
func TestMatrixMarkdownAndTables(t *testing.T) {
	rep := &MatrixReport{
		Schema: 1, N: 10, Trials: 1, Seed: 1, Gamma: 0.25,
		Rows: []MatrixRow{
			{Task: "mean", Attack: "none", AttackName: "none", Scheme: "EMF", Gamma: 0, MSE: 1e-4, GammaErr: 0.01},
			{Task: "mean", Attack: "bba", AttackName: "BBA", Scheme: "EMF", Gamma: 0.25, MSE: 2e-3, GammaErr: 0.02},
		},
	}
	var sb strings.Builder
	if err := rep.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	md := sb.String()
	for _, want := range []string{"## task mean", "| none | 0.00 |", "| bba | 0.25 |", "EMF MSE"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("report has %d rows, want 2: %+v", len(rep.Rows), rep.Rows)
	}
}

// TestMatrixExtraRejection: categorical and epoch-adaptive extras cannot
// join the numeric batch panel.
func TestMatrixExtraRejection(t *testing.T) {
	cfg := matrixTestConfig()
	if _, err := RunMatrix(cfg, 0.25, []NamedAttack{
		{Label: "targeted", Spec: attack.Spec{Name: "targeted", Cats: []int{3}}},
	}); err == nil {
		t.Fatal("categorical extra accepted into the numeric panel")
	}
	if _, err := RunMatrix(cfg, 0.25, []NamedAttack{
		{Label: "ramp", Spec: attack.Spec{Name: "ramp"}},
	}); err == nil {
		t.Fatal("epoch-adaptive extra accepted into the batch matrix")
	}
}
