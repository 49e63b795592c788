// Package lint is dapvet's engine: a stdlib-only static-analysis pass
// (go/parser + go/ast + go/types, export data via `go list -export`) that
// machine-checks the two contracts DAP's numbers rest on. Replaying the
// WAL must give the same estimate bit for bit (determinism, plus lockorder
// so recovery and scrapes cannot deadlock against the store), and each
// user's ε must be charged before the report lands (budget). Properties a
// runtime test can observe on the real binary — allocation counts, error
// classes, metric registration — are left to those tests.
//
// The analyzers are deliberately idiom-anchored: they match the repo's
// naming conventions (an `Accountant` with SpendN/Charge, a `Store` with
// Append*, `shard.addLocked`) rather than reimplementing a whole-program
// escape or alias analysis. That keeps the pass fast, dependency-free and
// reviewable, at the cost of being a lint, not a proof — intentional
// deviations are annotated in source with the `//dapvet:*` directive
// grammar (see directive.go) and carry a written justification that
// dapvet itself enforces.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule names the analyzer that fired (or "directive" for a malformed
	// //dapvet: comment).
	Rule string
	// Msg describes the violation and, where possible, the fix.
	Msg string
}

// String formats a finding as file:line:col: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one machine-checked contract.
type Analyzer struct {
	// Name is the rule name findings carry and suppressions reference.
	Name string
	// Doc is a one-line description of the contract.
	Doc string
	// Run inspects one package and reports violations.
	Run func(p *Package, r *Reporter)
}

// Analyzers returns the full rule set in documentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism,
		analyzerLockOrder,
		analyzerBudget,
	}
}

// AnalyzerNames returns the valid rule names (suppression targets).
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// Reporter collects findings for one analyzer over one package, applying
// that package's //dapvet:<rule>-ok suppressions.
type Reporter struct {
	pkg      *Package
	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos unless a suppression covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	position := r.pkg.Fset.Position(pos)
	if r.pkg.suppressed(r.rule, position) {
		return
	}
	*r.findings = append(*r.findings, Finding{
		Pos:  position,
		Rule: r.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Run loads the packages matched by opts and runs every analyzer,
// returning all findings sorted by position. A non-nil error means the
// pass itself could not run (unparseable source, failed go list), not
// that findings exist.
func Run(opts Options) ([]Finding, error) {
	pkgs, err := Load(opts)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, Lint(p)...)
	}
	Sort(findings)
	return findings, nil
}

// Lint runs every analyzer over one loaded package.
func Lint(p *Package) []Finding {
	var findings []Finding
	findings = append(findings, p.badDirectives...)
	for _, a := range Analyzers() {
		a.Run(p, &Reporter{pkg: p, rule: a.Name, findings: &findings})
	}
	return findings
}

// Sort orders findings by file, line, column, rule.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
