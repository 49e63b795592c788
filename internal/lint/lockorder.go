package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerLockOrder checks three mutex-ordering contracts across
// internal/store, internal/stream and internal/transport:
//
//  1. Re-entry: a function that holds a mutex (tracked lexically by the
//     owner's named type and field, e.g. Store.mu) must not call, directly
//     or transitively within its package, a function that acquires the
//     same mutex. Helpers whose first action on a mutex is an Unlock
//     (flushBatch-style "caller holds it" helpers) are not acquirers.
//  2. Scrape reachability: functions annotated //dapvet:scrape, and
//     everything they reach in their package, must not call the Store
//     methods that take the store mutex (Health, SyncMetrics, Append*,
//     ...) — recovery holds that mutex while scrapes run (the PR 7
//     deadlock); scrapes go through the published-registry gate instead.
//  3. Stripe ordering: a loop that acquires indexed stripe locks without
//     releasing them in the loop body must be preceded by the sorted-keys
//     idiom (slices.Sort) or walk a bitset of keys in ascending order
//     (math/bits.TrailingZeros in the loop), or concurrent batches
//     deadlock.
//
// The held-state walk is lexical and per-branch (branch bodies get a copy
// of the held set), which models the repo's lock/defer-unlock and
// early-unlock-and-return idioms without a full CFG.
var analyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no mutex re-entry, no store-mutex calls from scrape paths, stripe locks acquired in sorted order",
	Run:  runLockOrder,
}

// lockKey identifies a mutex by its owner's named type and field.
type lockKey struct{ recv, field string }

// Held/acquire kinds; write conflicts with everything, read with write.
const (
	lockRead  = 1
	lockWrite = 2
)

func runLockOrder(p *Package, r *Reporter) {
	if !p.pathIn("internal/store", "internal/stream", "internal/transport") {
		return
	}
	byObj := p.decls()
	acq := lockAcquirers(p, byObj)
	w := &lockWalker{p: p, r: r, acq: acq}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.fn = p.funcName(fd)
			w.stmts(fd.Body.List, lockState{})
			checkStripeLoops(p, r, fd)
		}
	}
	checkScrapeReach(p, r)
}

// lockKeyOf resolves a mutex owner expression to its key.
func (p *Package) lockKeyOf(owner ast.Expr, field string) (lockKey, bool) {
	t := p.Info.TypeOf(owner)
	if t == nil {
		return lockKey{}, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return lockKey{}, false
	}
	return lockKey{recv: named.Obj().Name(), field: field}, true
}

// firstLockActions records, per mutex key, the first lexical action a
// function takes: positive = acquire (read/write), -1 = release. A
// function that releases first expects its caller to hold the mutex and
// is not an acquirer from the caller's point of view.
func firstLockActions(p *Package, fd *ast.FuncDecl) map[lockKey]int {
	acts := make(map[lockKey]int)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		owner, field, method, ok := p.mutexCall(call)
		if !ok {
			return true
		}
		k, ok := p.lockKeyOf(owner, field)
		if !ok || acts[k] != 0 {
			return true
		}
		switch method {
		case "Lock", "TryLock":
			acts[k] = lockWrite
		case "RLock":
			acts[k] = lockRead
		default:
			acts[k] = -1
		}
		return true
	})
	return acts
}

// lockAcquirers computes, for every function in the package, the mutexes
// it acquires directly or via intra-package calls (transitive fixpoint).
func lockAcquirers(p *Package, byObj map[*types.Func]*ast.FuncDecl) map[*types.Func]map[lockKey]int {
	acts := make(map[*types.Func]map[lockKey]int, len(byObj))
	callees := make(map[*types.Func][]*types.Func, len(byObj))
	acq := make(map[*types.Func]map[lockKey]int, len(byObj))
	for fn, fd := range byObj {
		if fd.Body == nil {
			acq[fn] = map[lockKey]int{}
			continue
		}
		acts[fn] = firstLockActions(p, fd)
		acq[fn] = make(map[lockKey]int)
		for k, a := range acts[fn] {
			if a > 0 {
				acq[fn][k] = a
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if g := p.callee(call); g != nil && g != fn {
					if _, inPkg := byObj[g]; inPkg {
						callees[fn] = append(callees[fn], g)
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn := range byObj {
			for _, g := range callees[fn] {
				for k, kind := range acq[g] {
					if acts[fn][k] == -1 {
						continue // fn releases this mutex before re-acquiring
					}
					if acq[fn][k] < kind {
						acq[fn][k] = kind
						changed = true
					}
				}
			}
		}
	}
	return acq
}

// lockState is the set of mutexes lexically held at a program point.
type lockState map[lockKey]int

func (s lockState) copy() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// lockWalker runs the held-state walk over one function body.
type lockWalker struct {
	p   *Package
	r   *Reporter
	acq map[*types.Func]map[lockKey]int
	fn  string
}

func (w *lockWalker) stmts(list []ast.Stmt, held lockState) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if owner, field, method, ok := w.p.mutexCall(call); ok {
				w.apply(call, owner, field, method, held)
				return
			}
		}
		w.scan(s, held)
	case *ast.DeferStmt:
		if _, _, method, ok := w.p.mutexCall(s.Call); ok && (method == "Unlock" || method == "RUnlock") {
			return // releases at return; held for the rest of the body
		}
		w.scan(s.Call, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, held.copy())
		if s.Else != nil {
			w.stmt(s.Else, held.copy())
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scan(s.Cond, held)
		}
		inner := held.copy()
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.scan(s.X, held)
		w.stmts(s.Body.List, held.copy())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.copy())
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.copy())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.copy()
				if cc.Comm != nil {
					w.stmt(cc.Comm, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		// Runs on another goroutine; blocking there is not a self-deadlock.
	default:
		w.scan(s, held)
	}
}

// apply executes a top-level mutex call against the held state, reporting
// re-entrant acquisition.
func (w *lockWalker) apply(call *ast.CallExpr, owner ast.Expr, field, method string, held lockState) {
	k, ok := w.p.lockKeyOf(owner, field)
	if !ok {
		return
	}
	switch method {
	case "Lock":
		if held[k] > 0 {
			w.r.Reportf(call.Pos(), "%s locks %s.%s while already holding it (self-deadlock)", w.fn, exprString(owner), field)
		}
		held[k] = lockWrite
	case "TryLock":
		held[k] = lockWrite
	case "RLock":
		if held[k] == lockWrite {
			w.r.Reportf(call.Pos(), "%s read-locks %s.%s while write-holding it (self-deadlock)", w.fn, exprString(owner), field)
		}
		if held[k] < lockRead {
			held[k] = lockRead
		}
	case "Unlock", "RUnlock":
		delete(held, k)
	}
}

// scan inspects a statement or expression subtree for calls that conflict
// with the held mutexes, without changing the held state. Function
// literals are skipped: when and where they run is not lexical.
func (w *lockWalker) scan(n ast.Node, held lockState) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if owner, field, method, ok := w.p.mutexCall(call); ok {
			if k, ok := w.p.lockKeyOf(owner, field); ok && (method == "Lock" || method == "RLock") {
				if h := held[k]; h == lockWrite || (h == lockRead && method == "Lock") {
					w.r.Reportf(call.Pos(), "%s acquires %s.%s while already holding it (self-deadlock)", w.fn, exprString(owner), field)
				}
			}
			return true
		}
		g := w.p.callee(call)
		if g == nil {
			return true
		}
		for k, kind := range w.acq[g] {
			if h := held[k]; h == lockWrite || (h == lockRead && kind == lockWrite) {
				w.r.Reportf(call.Pos(), "%s calls %s while holding %s.%s, and %s acquires that mutex (self-deadlock)", w.fn, g.Name(), k.recv, k.field, g.Name())
			}
		}
		return true
	})
}

// storeMutexMethod reports whether the named Store method takes the store
// mutex — the declared "needs store mutex" set scrapes must not touch.
func storeMutexMethod(name string) bool {
	switch name {
	case "Health", "SyncMetrics", "NextLSN", "WriteSnapshot", "Load", "Close":
		return true
	}
	return strings.HasPrefix(name, "Append")
}

// checkScrapeReach enforces rule 2: nothing reachable from a
// //dapvet:scrape function may call into the store-mutex method set.
func checkScrapeReach(p *Package, r *Reporter) {
	var entries []*ast.FuncDecl
	for fd := range p.scrape {
		entries = append(entries, fd)
	}
	if len(entries) == 0 {
		return
	}
	for fd := range p.closure(entries) {
		if fd.Body == nil {
			continue
		}
		name := p.funcName(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.callee(call)
			if fn != nil && recvNamed(fn) == "Store" && storeMutexMethod(fn.Name()) {
				r.Reportf(call.Pos(), "scrape-reachable %s calls (*Store).%s, which takes the store mutex; recovery holds it while scrapes run — go through the published-registry gate", name, fn.Name())
			}
			return true
		})
	}
}

// checkStripeLoops enforces rule 3: a loop that acquires indexed stripe
// locks and holds them past the iteration must be preceded by a key sort
// or draw its keys lowest first from a bitset.
func checkStripeLoops(p *Package, r *Reporter, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		lock := p.containsCall(body, func(call *ast.CallExpr) bool {
			owner, _, method, ok := p.mutexCall(call)
			if !ok || (method != "Lock" && method != "RLock") {
				return false
			}
			return containsIndex(owner)
		})
		if lock == nil {
			return true
		}
		unlocked := p.containsCall(body, func(call *ast.CallExpr) bool {
			_, _, method, ok := p.mutexCall(call)
			return ok && (method == "Unlock" || method == "RUnlock")
		})
		if unlocked != nil {
			return true // lock-per-iteration: only one held at a time
		}
		if !sortedBefore(p, fd, n.Pos()) && !ascendingBits(p, n) {
			r.Reportf(lock.Pos(), "%s acquires stripe locks in a loop without sorting the keys first; unordered acquisition deadlocks concurrent batches (see Tenant.ingestStaged)", p.funcName(fd))
		}
		return true
	})
}

// containsIndex reports whether the expression involves an index — the
// signature of a stripe (one lock out of an indexed set).
func containsIndex(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// ascendingBits reports whether loop calls math/bits.TrailingZeros*, the
// walk of a bitset that yields its set bits lowest first.
func ascendingBits(p *Package, loop ast.Node) bool {
	return p.containsCall(loop, func(call *ast.CallExpr) bool {
		fn := p.callee(call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/bits" &&
			strings.HasPrefix(fn.Name(), "TrailingZeros")
	}) != nil
}

// sortedBefore reports whether the function calls a slices/sort sorting
// function lexically before pos.
func sortedBefore(p *Package, fd *ast.FuncDecl, pos token.Pos) bool {
	sorted := p.containsCall(fd.Body, func(call *ast.CallExpr) bool {
		if call.Pos() >= pos {
			return false
		}
		fn := p.callee(call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "slices", "sort":
			return strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Slice" || fn.Name() == "Ints" || fn.Name() == "Strings"
		}
		return false
	})
	return sorted != nil
}
