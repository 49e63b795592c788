package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Options selects what Run lints.
type Options struct {
	// Dir is the module root the go tool runs in ("" = current directory).
	Dir string
	// Patterns are go-tool package patterns (default ./...).
	Patterns []string
}

// Package is one loaded, type-checked package plus its scanned dapvet
// directives.
type Package struct {
	// Path is the package's import path. Fixture packages claim the path
	// of the package whose contracts they exercise.
	Path string
	// Dir holds the package's source files.
	Dir string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Pkg and Info carry full type information.
	Pkg  *types.Package
	Info *types.Info

	supp          []suppression
	scrape        map[*ast.FuncDecl]bool
	badDirectives []Finding
}

// sep separates go list template fields; never appears in paths.
const sep = "\x1f"

// listFormat extracts import path, directory, export-data file and the
// build-tag-filtered non-test sources of every package.
const listFormat = "{{.ImportPath}}" + sep + "{{.Dir}}" + sep + "{{.Export}}" + sep +
	"{{range .GoFiles}}{{.}}\x1e{{end}}"

// goList runs the go tool and returns its stdout.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args[:2], " "), err, errb.String())
	}
	return out.Bytes(), nil
}

// listedPkg is one `go list` result row.
type listedPkg struct {
	path, dir, export string
	goFiles           []string
}

// listPackages resolves patterns (plus their dependency closure, compiled
// so export data exists) into rows.
func listPackages(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-f", listFormat}, patterns...)
	out, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []listedPkg
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Split(line, sep)
		if len(fields) != 4 {
			return nil, fmt.Errorf("lint: unexpected go list output %q", line)
		}
		p := listedPkg{path: fields[0], dir: fields[1], export: fields[2]}
		for _, f := range strings.Split(fields[3], "\x1e") {
			if f != "" {
				p.goFiles = append(p.goFiles, f)
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies go/types imports from the compiler export data
// `go list -export` placed in the build cache — full cross-package type
// information with no dependency on GOROOT source or cgo.
func exportImporter(fset *token.FileSet, exports map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// Load lists, parses, type-checks and directive-scans every package under
// opts.Dir matched by opts.Patterns (dependencies outside the tree are
// imported from export data, not linted).
func Load(opts Options) ([]*Package, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rows, err := listPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(rows))
	for _, r := range rows {
		exports[r.path] = r.export
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, r := range rows {
		if !strings.HasPrefix(r.dir, root+string(filepath.Separator)) && r.dir != root {
			continue // dependency outside the linted tree
		}
		var paths []string
		for _, f := range r.goFiles {
			paths = append(paths, filepath.Join(r.dir, f))
		}
		p, err := check(fset, imp, r.path, r.dir, paths)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check parses and type-checks one package's files under the claimed
// import path and scans its dapvet directives.
func check(fset *token.FileSet, imp types.ImporterFrom, path, dir string, filenames []string) (*Package, error) {
	p := &Package{
		Path: path,
		Dir:  dir,
		Fset: fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		scrape: make(map[*ast.FuncDecl]bool),
	}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, p.Files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p.Pkg = pkg
	for _, f := range p.Files {
		p.scanDirectives(f)
	}
	return p, nil
}

// CheckFixture type-checks the given source files as one package claiming
// the import path of the package whose contracts it exercises — the
// fixture-test entry point. moduleDir anchors `go list` so fixtures may
// import both the standard library and repro packages.
func CheckFixture(moduleDir, claimedPath string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var imports []string
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		rows, err := listPackages(moduleDir, imports)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			exports[r.path] = r.export
		}
	}
	return check(fset, exportImporter(fset, exports), claimedPath, filepath.Dir(filenames[0]), filenames)
}

// pathIn reports whether the package is (or claims to be) one of the
// given repo packages, matching by import-path suffix.
func (p *Package) pathIn(suffixes ...string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(p.Path, s) {
			return true
		}
	}
	return false
}
