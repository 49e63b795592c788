package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
)

// tinyConfig keeps smoke tests fast; the real harness scales N up.
func tinyConfig() Config {
	return Config{N: 1500, Trials: 1, Seed: 7, EMFMaxIter: 50}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	want := []string{"ablation", "fig10", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "spec", "table1"}
	if len(names) != len(want) {
		t.Fatalf("experiments = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", names, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// cellFloat parses a table cell produced by e2s/f2s.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func checkTableShape(t *testing.T, tbl *Table) {
	t.Helper()
	if tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
		t.Fatalf("malformed table %+v", tbl)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("%s: row %v does not match header %v", tbl.Title, row, tbl.Header)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	tables, err := Run("table1", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	tbl := tables[0]
	checkTableShape(t, tbl)
	if len(tbl.Rows) != 8 { // 4 ranges × {L,R}
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Paper shape: for the clearly separated range [3C/4,C], the right
	// (true) side has lower x̂ variance. At tiny smoke-test N the smallest
	// ε degenerates to a single input bucket, so check the ε=2 column.
	var lVar, rVar float64
	for _, row := range tbl.Rows {
		if row[0] == "[3C/4,C]" {
			v := cellFloat(t, row[2]) // ε=2 column
			if row[1] == "L" {
				lVar = v
			} else {
				rVar = v
			}
		}
	}
	if rVar >= lVar {
		t.Fatalf("Table I shape violated: Var_R %v >= Var_L %v", rVar, lVar)
	}
}

func TestFig4Smoke(t *testing.T) {
	tables, err := Run("fig4", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTableShape(t, tables[0])
	if len(tables[0].Rows) != 4 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
	// Histogram cells sum to ~1 per dataset.
	for _, row := range tables[0].Rows {
		var sum float64
		for _, cell := range row[2:] {
			sum += cellFloat(t, cell)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: histogram sums to %v", row[0], sum)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	tables, err := Run("fig5", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		checkTableShape(t, tbl)
		for _, row := range tbl.Rows {
			for _, cell := range row[1:] {
				v := cellFloat(t, cell)
				if v < 0 || v > 1.01 {
					t.Fatalf("%s: value %v outside [0,1]", tbl.Title, v)
				}
			}
		}
	}
}

func TestFig6SmokeSinglePanelShape(t *testing.T) {
	// Full fig6 is 16 panels; the smoke test exercises one via mseRows.
	cfg := tinyConfig()
	ds, err := loadDataset(cfg, "Beta(2,5)")
	if err != nil {
		t.Fatal(err)
	}
	w := load{values: ds.Values, adv: attack.NewBBA(mustRange("[C/2,C]"), attack.DistUniform), gamma: 0.25}
	rows, err := cfg.mseRows(ds.TrueMean(), []column{{0.5, w}, {1, w}}, cfg.Seed+0x600, 10)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := run(cfg, panel{title: "smoke", header: []string{"Scheme", "1/2", "1"}, rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	checkTableShape(t, tbl)
	if len(tbl.Rows) != 5 {
		t.Fatalf("schemes = %d", len(tbl.Rows))
	}
	// Shape: every DAP scheme beats Ostrich at ε=1 (last column).
	ostrich := 0.0
	for _, row := range tbl.Rows {
		if row[0] == "Ostrich" {
			ostrich = cellFloat(t, row[len(row)-1])
		}
	}
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "DAP_") {
			if v := cellFloat(t, row[len(row)-1]); v >= ostrich {
				t.Fatalf("%s MSE %v does not beat Ostrich %v", row[0], v, ostrich)
			}
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	tables, err := Run("fig7", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		checkTableShape(t, tbl)
		if len(tbl.Rows) != 5 {
			t.Fatalf("%s: schemes = %d", tbl.Title, len(tbl.Rows))
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	tables, err := Run("fig8", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		checkTableShape(t, tbl)
	}
}

func TestFig9Smoke(t *testing.T) {
	tables, err := Run("fig9", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("panels = %d", len(tables))
	}
	// Panel (a): 3 DAP rows + 5 k-means rows.
	if len(tables[0].Rows) != 8 {
		t.Fatalf("fig9(a) rows = %d", len(tables[0].Rows))
	}
	// Panel (b): 3 EMF-based + 3 k-means rows.
	if len(tables[1].Rows) != 6 {
		t.Fatalf("fig9(b) rows = %d", len(tables[1].Rows))
	}
	// Panels (c)(d): 3 DAP + Ostrich.
	for _, tbl := range tables[2:] {
		checkTableShape(t, tbl)
		if len(tbl.Rows) != 4 {
			t.Fatalf("%s rows = %d", tbl.Title, len(tbl.Rows))
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	tables, err := Run("fig10", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		checkTableShape(t, tbl)
		if len(tbl.Rows) != 3 {
			t.Fatalf("%s rows = %d", tbl.Title, len(tbl.Rows))
		}
	}
}

func TestAblationSmoke(t *testing.T) {
	tables, err := Run("ablation", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("panels = %d", len(tables))
	}
	for _, tbl := range tables {
		checkTableShape(t, tbl)
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"x", "y"}}}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "bb") {
		t.Fatalf("Fprint output: %q", out)
	}
	buf.Reset()
	tbl.CSV(&buf)
	if !strings.Contains(buf.String(), "a,bb") {
		t.Fatalf("CSV output: %q", buf.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.N != 20000 || c.Trials != 3 || c.Seed != 1 || c.EMFMaxIter != 200 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestSpecSweepRejectsEpochAdaptiveAttacks: the batch sweep has no epoch
// axis, so ramp/burst specs fail loudly instead of sweeping their
// epoch-0 strength.
func TestSpecSweepRejectsEpochAdaptiveAttacks(t *testing.T) {
	cfg := tinyConfig()
	sp := core.NewSpec(core.MeanTask(), core.WithAttack(attack.Spec{Name: "ramp"}))
	cfg.Spec = &sp
	if _, err := SpecSweep(cfg); err == nil {
		t.Fatal("epoch-adaptive attack accepted by the batch spec sweep")
	}
}
