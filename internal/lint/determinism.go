package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// analyzerDeterminism enforces the bit-identical-recovery contract: the
// estimate and replay paths of internal/emf, internal/core and
// internal/stream must be deterministic. Replaying the WAL re-runs the
// same float accumulation, so these paths may not read the wall clock,
// draw randomness, or fold floats in map-iteration order.
//
// Entry points are package-specific: every function in internal/emf (the
// whole package is the deterministic EM solver), Estimate*/estimate* in
// internal/core (the Run* simulation drivers intentionally take a
// *rand.Rand and are exempt), and Estimate*/estimate*/replay*/Recover* in
// internal/stream. The check covers everything statically reachable from
// an entry within its package. Wall-clock reads that do not feed the
// estimate (metric timings, snapshot timestamps) are annotated
// //dapvet:determinism-ok with a justification.
var analyzerDeterminism = &Analyzer{
	Name: "determinism",
	Doc:  "estimate/replay paths must not use time.Now, math/rand, or map-order float accumulation",
	Run:  runDeterminism,
}

// determinismEntry reports whether the declaration anchors a
// deterministic path in the given package.
func determinismEntry(p *Package, fd *ast.FuncDecl) bool {
	switch {
	case p.pathIn("internal/emf"):
		return true
	case p.pathIn("internal/core"):
		return hasAnyPrefix(fd.Name.Name, "Estimate", "estimate")
	case p.pathIn("internal/stream"):
		return hasAnyPrefix(fd.Name.Name, "Estimate", "estimate", "replay", "Replay", "Recover")
	}
	return false
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func runDeterminism(p *Package, r *Reporter) {
	if !p.pathIn("internal/emf", "internal/core", "internal/stream") {
		return
	}
	var entries []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && determinismEntry(p, fd) {
				entries = append(entries, fd)
			}
		}
	}
	for fd := range p.closure(entries) {
		if fd.Body == nil {
			continue
		}
		name := p.funcName(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := p.callee(n)
				if fn == nil {
					return true
				}
				if isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since") {
					r.Reportf(n.Pos(), "%s reads the wall clock (time.%s) on an estimate/replay path; replay must be bit-identical", name, fn.Name())
				}
				if fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "math/rand", "math/rand/v2":
						r.Reportf(n.Pos(), "%s draws randomness (%s.%s) on an estimate/replay path; replay must be bit-identical", name, fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapOrderAccum(p, r, name, n)
			}
			return true
		})
	}
}

// checkMapOrderAccum flags `for _, v := range m { acc += ... }` where m is
// a map and acc has floating-point type: the iteration order varies run to
// run and float addition is not associative, so the accumulated value is
// nondeterministic.
func checkMapOrderAccum(p *Package, r *Reporter, name string, rng *ast.RangeStmt) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok.String() {
		case "+=", "-=", "*=", "/=":
		default:
			return true
		}
		lt := p.Info.TypeOf(as.Lhs[0])
		if lt == nil {
			return true
		}
		if basic, ok := lt.Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
			r.Reportf(as.Pos(), "%s accumulates floats in map-iteration order; extract and sort the keys first so replay is bit-identical", name)
		}
		return true
	})
}
