//go:build deadcode

package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The reachability gate, run by `make deadcode`: every declared non-test
// function must be linked into some binary the repository builds — one of
// its main packages, or a harness that references every exported name of
// the root package, so code only the public API reaches counts as reached
// — or stand on the allowlist below with the reason it stays. The linker
// drops what nothing calls, so a function missing from every binary's
// symbol table is code only tests reach. Inlining is switched off
// (-gcflags=all=-l) so an inlined function still leaves its own symbol.
// The build tag keeps `go test ./...` from paying for the no-inline build.

// allowlist names the functions that stay although no binary links them,
// each with its reason. A key is a function key (see funcKey) with the
// module prefix dropped; a key ending in ".*" covers every method of
// that receiver.
var allowlist = map[string]string{
	"internal/store.NewFlaky":                         "fault-injecting FS test double; the store, stream and transport durability tests use it",
	"internal/store.(*Flaky).*":                       "fault-injecting FS test double; the store, stream and transport durability tests use it",
	"internal/store.(*flakyFile).*":                   "the test double's file handle",
	"internal/store.errInjected.Error":                "the test double's injected error",
	"internal/emf.fastLog":                            "the reference the E-step's hand-inlined copies of the log table track; the emf tests compare it with math.Log",
	"internal/emf.(*Matrix).Banded":                   "the emf tests and the root benchmarks assert that the banded E-step is taken",
	"internal/ldp/krr.MustNew":                        "builds fixed-parameter k-RR mechanisms in the emf and stream tests",
	"internal/privacy.(*Accountant).Spent":            "reads one user's spend; the privacy and stream tests check the ledger through it",
	"internal/bench.Fig5Cell":                         "one paper cell, timed by the root package's BenchmarkFig5Cell",
	"internal/stream.StripeOf":                        "the documented partition rule for multi-node routing; ROADMAP item 8 decides it",
	"internal/stream.(*Coordinator).Ledger":           "the merged per-user ledger; ROADMAP item 8 decides it",
	"internal/lint.CheckFixture":                      "the dapvet fixture tests type-check each fixture through it",
	"internal/transport.(*Client).AdminStatus":        "the Go client's binding of a server route no command calls; the transport tests drive the route through it",
	"internal/transport.(*Client).Tenants":            "the Go client's binding of a server route no command calls; the transport tests drive the route through it",
	"internal/transport.(*Client).DeleteTenant":       "the Go client's binding of a server route no command calls; the transport tests drive the route through it",
	"internal/transport.(*Client).MergeEstimate":      "the Go client's binding of a server route no command calls; the transport tests drive the route through it",
	"internal/transport.(*TenantClient).SubmitPoison": "the Go client's Byzantine round; the transport tests check the server clamps it",
	"internal/transport.(*Server).Recovering":         "boot-recovery flag the transport durability tests wait on",
	"internal/transport.(*UDPClient).Skip":            "advances the datagram sequence so the UDP tests can provoke loss",
}

const (
	harnessDir = "internal/deadcodeharness"
	// The self-test plants two functions in a linked package: one no code
	// calls, which the gate must flag, and one the harness calls, which
	// proves the overlay is compiled and the symbol tables are read.
	plantedFile = "internal/stats/deadcode_planted.go"
	plantedSrc  = `package stats

func deadcodePlanted() int { return 1 }

// DeadcodePlantedLive is called by the harness.
func DeadcodePlantedLive() int { return 2 }
`
	plantedDead = "repro/internal/stats.deadcodePlanted"
	plantedLive = "repro/internal/stats.DeadcodePlantedLive"
)

// declared is one non-test function declaration.
type declared struct {
	key string // see funcKey
	pos string
}

// reach is the result of one gate build: every declared function and the
// set of function symbols linked into some binary.
type reach struct {
	module string
	funcs  []declared
	linked map[string]bool
}

var cachedReach *reach

// buildReach loads the tree, builds every main package and the harness
// with inlining off, and reads their symbol tables. Both tests share it.
func buildReach(t *testing.T) *reach {
	t.Helper()
	if cachedReach != nil {
		return cachedReach
	}
	root := moduleRoot(t)
	pkgs, err := Load(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	r := &reach{linked: map[string]bool{}}
	var mains []string
	var api *types.Package
	for _, p := range pkgs {
		if p.Dir == root {
			r.module, api = p.Path, p.Pkg
		}
		if p.Pkg.Name() == "main" {
			mains = append(mains, p.Path)
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					r.funcs = append(r.funcs, declared{funcKey(p.Path, fd), p.Fset.Position(fd.Pos()).String()})
				}
			}
		}
	}
	if api == nil {
		t.Fatal("root package not loaded")
	}
	r.funcs = append(r.funcs, declared{plantedDead, plantedFile}, declared{plantedLive, plantedFile})

	tmp := t.TempDir()
	overlay := map[string]string{
		filepath.Join(root, plantedFile):           writeTemp(t, tmp, "planted.go", plantedSrc),
		filepath.Join(root, harnessDir, "main.go"): writeTemp(t, tmp, "harness.go", harnessSource(api)),
	}
	ov, err := json.Marshal(map[string]any{"Replace": overlay})
	if err != nil {
		t.Fatal(err)
	}
	ovPath := writeTemp(t, tmp, "overlay.json", string(ov))
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	harness := r.module + "/" + harnessDir
	args := append([]string{"build", "-gcflags=all=-l", "-overlay", ovPath, "-o", bin}, append(mains, harness)...)
	runGo(t, root, args...)
	for _, pkg := range append(mains, harness) {
		out := runGo(t, root, "tool", "nm", filepath.Join(bin, filepath.Base(pkg)))
		for _, line := range strings.Split(out, "\n") {
			if sym, ok := textSymbol(line, pkg); ok {
				r.linked[sym] = true
			}
		}
	}
	cachedReach = r
	return r
}

// funcKey names a declaration the way the linker's symbol table does,
// with type arguments dropped: pkg.F, pkg.T.M or pkg.(*T).M.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		name = "(*" + name + ")"
	}
	return pkg + "." + name + "." + fd.Name.Name
}

var (
	// nmLine is `address type name`; names of generic shapes hold spaces.
	nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)
	// userInit is the symbol of a declared func init: pkg.init.0, .1, …
	userInit = regexp.MustCompile(`\.init\.\d+$`)
)

// textSymbol turns one `go tool nm` line into a function key: text
// symbols only, main renamed to the package's import path, type
// arguments (`F[go.shape.int]`, `(*vec[…]).with`) stripped and every
// declared init folded into pkg.init.
func textSymbol(line, mainPkg string) (string, bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil || (m[1] != "T" && m[1] != "t") {
		return "", false
	}
	sym := m[2]
	if strings.HasPrefix(sym, "main.") {
		sym = mainPkg + sym[len("main"):]
	}
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return userInit.ReplaceAllString(b.String(), ".init"), true
}

// harnessSource is a main package that references every exported
// function, variable and method of the root package, so the linker keeps
// everything the public API can reach. It also calls the planted live
// function.
func harnessSource(api *types.Package) string {
	var refs []string
	scope := api.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() && obj.Type().(*types.Signature).TypeParams() == nil {
				refs = append(refs, "dap."+name)
			}
		case *types.Var:
			if obj.Exported() {
				refs = append(refs, "&dap."+name)
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			if n, ok := obj.Type().(*types.Named); ok && n.TypeParams() != nil {
				continue
			}
			recv, form := types.Type(types.NewPointer(obj.Type())), "(*dap.%s).%s"
			if types.IsInterface(obj.Type()) {
				recv, form = obj.Type(), "dap.%s.%s"
			}
			ms := types.NewMethodSet(recv)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					refs = append(refs, fmt.Sprintf(form, name, m.Name()))
				}
			}
		}
	}
	return fmt.Sprintf(`package main

import (
	dap %q
	"%s/internal/stats"
)

var sink []any

func main() {
	sink = []any{
		stats.DeadcodePlantedLive,
		%s,
	}
}
`, api.Path(), api.Path(), strings.Join(refs, ",\n\t\t"))
}

func writeTemp(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGo runs the go tool through the loader's goList and fails the test
// on error.
func runGo(t *testing.T, dir string, args ...string) string {
	t.Helper()
	out, err := goList(dir, args...)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// allowed returns the allowlist entry covering a function key, if any.
func allowed(module, key string) (string, bool) {
	short := strings.TrimPrefix(key, module+"/")
	if _, ok := allowlist[short]; ok {
		return short, true
	}
	for entry := range allowlist {
		if prefix, ok := strings.CutSuffix(entry, "*"); ok && strings.HasPrefix(short, prefix) {
			return entry, true
		}
	}
	return "", false
}

// TestDeadcode fails on every declared non-test function that no binary
// links and no allowlist entry covers, on allowlist entries without a
// reason, and on entries that no longer cover an unreached function.
func TestDeadcode(t *testing.T) {
	r := buildReach(t)
	used := map[string]bool{}
	var dead []string
	for _, f := range r.funcs {
		if r.linked[f.key] || f.key == plantedDead || f.key == plantedLive {
			continue
		}
		if entry, ok := allowed(r.module, f.key); ok {
			used[entry] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", f.pos, strings.TrimPrefix(f.key, r.module+"/")))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreached: %s — delete it, or allowlist it with a reason", d)
	}
	for entry, reason := range allowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s has no reason", entry)
		}
		if !used[entry] {
			t.Errorf("allowlist entry %s covers no unreached function — remove it", entry)
		}
	}
}

// TestDeadcodeSelfTest checks the gate on known cases: the planted
// unreached function is flagged and its live twin is not; sim.Repeat,
// linked only as generic instantiations, and core.zScore, linked only
// through Result.ConfidenceInterval in the root API, count as reached.
func TestDeadcodeSelfTest(t *testing.T) {
	r := buildReach(t)
	if r.linked[plantedDead] {
		t.Errorf("%s is linked; the gate would miss an unreached function", plantedDead)
	}
	for _, key := range []string{plantedLive, r.module + "/internal/sim.Repeat", r.module + "/internal/core.zScore"} {
		if !r.linked[key] {
			t.Errorf("%s is reached but not linked; the gate would flag it", key)
		}
	}
}
