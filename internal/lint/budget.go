package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// analyzerBudget enforces the charge-then-refund accounting contract in
// internal/stream's ingest paths:
//
//   - Histogram mutation (shard.addLocked) must be
//     lexically dominated by a charge — Accountant.Spend, SpendN or Charge
//     (the charge through a user's table record), or Record.Force on
//     replay — in the same function: state never moves before the privacy
//     budget pays for it.
//   - After a Spend/SpendN/Charge, a failed store append must refund: an
//     error return inside the append's error branch that skips
//     Record.Refund leaks budget the tenant never got durability for.
//
// The shard/shardSet methods themselves are the mutation primitives and
// are exempt; the rule binds their callers.
var analyzerBudget = &Analyzer{
	Name: "budget",
	Doc:  "histogram mutation must follow an Accountant charge; failed appends after a charge must refund",
	Run:  runBudget,
}

func runBudget(p *Package, r *Reporter) {
	if !p.pathIn("internal/stream") {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch recvName(fd) {
			case "shard", "shardSet":
				continue // the mutation primitives themselves
			}
			checkBudgetFn(p, r, fd)
		}
	}
}

// recvName is the receiver type name of a declaration ("" for functions).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func checkBudgetFn(p *Package, r *Reporter, fd *ast.FuncDecl) {
	name := p.funcName(fd)
	// isCall matches a method call by "Receiver.Method".
	isCall := func(call *ast.CallExpr, methods ...string) bool {
		fn := p.callee(call)
		return fn != nil && slices.Contains(methods, recvNamed(fn)+"."+fn.Name())
	}
	isSpend := func(call *ast.CallExpr) bool {
		return isCall(call, "Accountant.Spend", "Accountant.SpendN", "Accountant.Charge")
	}
	isRefund := func(call *ast.CallExpr) bool { return isCall(call, "Record.Refund") }
	isMutate := func(call *ast.CallExpr) bool {
		fn := p.callee(call)
		if fn == nil {
			return false
		}
		switch recvNamed(fn) {
		case "shard", "shardSet":
		default:
			return false
		}
		return fn.Name() == "add" || fn.Name() == "addLocked"
	}
	isAppend := func(call *ast.CallExpr) bool {
		fn := p.callee(call)
		return fn != nil && recvNamed(fn) == "Store" && strings.HasPrefix(fn.Name(), "Append")
	}

	// First charge position (NoPos when the function never charges).
	var firstCharge token.Pos
	hasSpend, hasAppend, hasRefund := false, false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSpend(call) || isCall(call, "Record.Force") {
			if !firstCharge.IsValid() {
				firstCharge = call.Pos()
			}
			hasSpend = hasSpend || isSpend(call)
		}
		hasAppend = hasAppend || isAppend(call)
		hasRefund = hasRefund || isRefund(call)
		return true
	})

	// Rule 1: every mutation is dominated by a charge.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMutate(call) {
			return true
		}
		if !firstCharge.IsValid() || call.Pos() < firstCharge {
			r.Reportf(call.Pos(), "%s mutates histogram state without a preceding Accountant charge; charge the budget before touching the shard", name)
		}
		return true
	})

	// Rule 2a: a charged append with no refund anywhere leaks budget.
	if hasSpend && hasAppend && !hasRefund {
		r.Reportf(fd.Pos(), "%s charges the budget and appends to the store but never refunds; a failed append must roll the charge back", name)
	}

	// Rule 2b: an append error branch that returns after a charge must
	// pass through a refund before leaving.
	if !hasSpend {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Init == nil || ifs.Pos() < firstCharge {
			return true
		}
		if p.containsCall(ifs.Init, isAppend) == nil {
			return true
		}
		var returns bool
		ast.Inspect(ifs.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns = true
			}
			return !returns
		})
		if !returns {
			return true
		}
		if p.containsCall(ifs.Body, isRefund) == nil {
			r.Reportf(ifs.Pos(), "%s returns from a failed store append after charging the budget without refunding; the charge must be rolled back", name)
		}
		return true
	})
}
