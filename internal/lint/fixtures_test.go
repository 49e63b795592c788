package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Each fixture file is type-checked as a standalone package claiming the
// import path of the repo package whose contracts it exercises, then run
// through every analyzer. Expected findings are declared inline:
//
//	code // want <rule> "substring"
//	code // want(-1) <rule> "substring"   (finding one line above)
//
// Every want must be hit by exactly matching findings and every finding
// must be declared by a want — fixtures prove both that a rule fires on
// the violation and that it stays silent on the idiomatic pattern.
var fixtureCases = []struct {
	file string
	path string
}{
	{"determinism.go", "repro/internal/stream"},
	{"lockorder.go", "repro/internal/stream"},
	{"budget.go", "repro/internal/stream"},
	{"directive.go", "repro/internal/stream"},
}

var wantRe = regexp.MustCompile(`// want(\(([+-]\d+)\))? (\w+) "([^"]*)"`)

type expectation struct {
	line int
	rule string
	sub  string
	hit  bool
}

func parseWants(t *testing.T, file string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			offset := 0
			if m[2] != "" {
				fmt.Sscanf(m[2], "%d", &offset)
			}
			wants = append(wants, &expectation{line: i + 1 + offset, rule: m[3], sub: m[4]})
		}
	}
	return wants
}

func TestFixtures(t *testing.T) {
	moduleDir := moduleRoot(t)
	for _, tc := range fixtureCases {
		t.Run(strings.TrimSuffix(tc.file, ".go"), func(t *testing.T) {
			file := filepath.Join("testdata", "fixtures", tc.file)
			wants := parseWants(t, file)
			if len(wants) == 0 {
				t.Fatalf("%s declares no expectations", tc.file)
			}
			pkg, err := CheckFixture(moduleDir, tc.path, []string{file})
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := Lint(pkg)
			Sort(findings)
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if w.line == f.Pos.Line && w.rule == f.Rule && strings.Contains(f.Msg, w.sub) {
						w.hit = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("line %d: expected [%s] finding containing %q, got none", w.line, w.rule, w.sub)
				}
			}
		})
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestRepoClean is the meta-test: dapvet must run clean on the tree it
// ships in, and a regression names the rule and position in CI output.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pass over the repo")
	}
	findings, err := Run(Options{Dir: moduleRoot(t)})
	if err != nil {
		t.Fatalf("dapvet could not run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("dapvet found %d finding(s); fix them or annotate with a justified //dapvet:<rule>-ok", len(findings))
	}
}
