package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A JSON -attacks row, inline or from a file, is titled by the adversary
// it builds; a bare registry name keeps its own name.
func TestExtraAttackLabels(t *testing.T) {
	file := filepath.Join(t.TempDir(), "gauss.json")
	if err := os.WriteFile(file, []byte(`{"name":"bba","range":"[3C/4,C]","dist":"gaussian"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	extra, err := extraAttacks(`opportunistic, {"name":"bba","side":"left","dist":"beta16"},` +
		`{"name":"ima","g":0.5}, @` + file)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"opportunistic", "BBA(left, [0.5,1]·C, Beta(1,6))", "IMA(g=0.5)", "BBA(right, [0.75,1]·C, Gaussian)"}
	if len(extra) != len(want) {
		t.Fatalf("%d rows, want %d", len(extra), len(want))
	}
	for i, na := range extra {
		if na.Label != want[i] {
			t.Errorf("row %d is titled %q, want %q", i, na.Label, want[i])
		}
	}
	for _, bad := range []string{`{"name":"bba","bogus":1}`, `{"name":"bba","dist":"cauchy"}`} {
		if _, err := extraAttacks(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}
