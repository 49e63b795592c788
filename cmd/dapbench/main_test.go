package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
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

// -exp one runs one round of every committed task kind and prints its
// estimate and the probed γ̂.
func TestOneRound(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		extra    []string
		estimate string
	}{
		{"mean.json", nil, "estimate "},
		{"distribution.json", nil, "estimate "},
		{"variance.json", nil, "variance "},
		{"baseline.json", nil, "estimate "},
		{"frequency.json", []string{"-attack", `{"name":"targeted","cats":[10,11,12]}`}, "frequency MSE "},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			var out strings.Builder
			args := append([]string{"-exp", "one", "-n", "3000", "-spec", filepath.Join("..", "..", "specs", tc.spec)}, tc.extra...)
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{tc.estimate, "probed γ̂ "} {
				if !strings.Contains(out.String(), "\n"+want) {
					t.Errorf("no %q line in\n%s", want, out.String())
				}
			}
		})
	}
}
