package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// decls maps every function object defined in the package to its
// declaration, letting analyzers chase intra-package static calls.
func (p *Package) decls() map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}

// callee resolves a call expression to the function object it statically
// invokes: a package function, a method on a concrete receiver, or an
// interface method. Builtins, function values and type conversions yield
// nil.
func (p *Package) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvNamed returns the name of the method's receiver's named type
// (pointers stripped), or "" for plain functions.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isPkgFunc reports whether fn is the named function of the package whose
// import path ends with pkgSuffix (e.g. "time".Now, "fmt".Errorf).
func isPkgFunc(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// pathHasSuffix matches an import path against a package suffix
// ("metrics" matches "repro/internal/metrics" and "metrics" itself).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// closure walks the intra-package static call graph from the given
// entry-point declarations and returns every declaration reachable from
// them (entries included).
func (p *Package) closure(entries []*ast.FuncDecl) map[*ast.FuncDecl]bool {
	byObj := p.decls()
	reach := make(map[*ast.FuncDecl]bool)
	work := append([]*ast.FuncDecl(nil), entries...)
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if fd == nil || reach[fd] {
			continue
		}
		reach[fd] = true
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := p.callee(call); fn != nil {
				if next, ok := byObj[fn]; ok && !reach[next] {
					work = append(work, next)
				}
			}
			return true
		})
	}
	return reach
}

// funcName renders a declaration's name including its receiver type, for
// messages ("(*Store).Health", "readUvarint").
func (p *Package) funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
		star = "*"
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// mutexCall matches a call of the form <owner>.<field>.Lock/Unlock (or
// RLock/RUnlock) where <field> has a sync mutex type, returning the owner
// expression, the mutex field name and the method. ok is false otherwise.
func (p *Package) mutexCall(call *ast.CallExpr) (owner ast.Expr, field, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	method = sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
	default:
		return nil, "", "", false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	t := p.Info.TypeOf(inner)
	if t == nil {
		return nil, "", "", false
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return inner.X, inner.Sel.Name, method, true
	}
	return nil, "", "", false
}

// exprString renders a short source-ish form of an expression for
// messages; good enough for identifiers and selector chains.
func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expr"
}

// containsCall reports whether the subtree contains a call for which
// match returns true, returning the first such call.
func (p *Package) containsCall(n ast.Node, match func(*ast.CallExpr) bool) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && match(call) {
			found = call
			return false
		}
		return true
	})
	return found
}
