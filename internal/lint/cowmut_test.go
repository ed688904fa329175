package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cowmut flags mutations of copy-on-write snapshots obtained from
// sync/atomic.Pointer.Load.
//
// The engine's name-resolution directory is published as an immutable
// snapshot behind an atomic.Pointer: readers load it once and writers must
// clone-mutate-publish a fresh copy. Writing through a loaded snapshot —
// a field store, a map insert or delete, a slice element store — races every
// concurrent reader without the race detector necessarily noticing (the
// racing reader may not run during the test), so the rule is enforced
// syntactically: a value that flows from Pointer.Load must never appear as
// a mutation target (an assignment, map write, delete, clear or increment).
//
// Values that pass through a function call (for example d.withAd(...) or
// d.users.with(k, v)) are deliberately NOT tracked: returning a private
// version is exactly the blessed derive-and-publish path.
func cowmut(pass *pass) {
	for _, fd := range pass.funcs() {
		checkCOWFunc(pass, fd.Body)
	}
}

// checkCOWFunc taints variables assigned from atomic.Pointer.Load results
// (including aliases formed by selecting fields or indexing into tainted
// values) and reports every mutation whose target is tainted. Function
// literals nested in body are covered by the same walk, so a goroutine
// mutating a captured snapshot is caught too.
func checkCOWFunc(pass *pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	// isLoad reports whether e is a call to (*sync/atomic.Pointer[T]).Load.
	isLoad := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := callee(pass.TypesInfo, call)
		return fn != nil && fn.Name() == "Load" && isMethodOf(fn, "sync/atomic", "Pointer")
	}

	// taintedExpr reports whether e derives from a Load result without
	// passing through a function call.
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return tainted[pass.TypesInfo.ObjectOf(e)]
		case *ast.SelectorExpr:
			// A selection through a tainted base stays tainted; a qualified
			// package identifier never is.
			return taintedExpr(e.X)
		case *ast.IndexExpr:
			return taintedExpr(e.X)
		case *ast.ParenExpr:
			return taintedExpr(e.X)
		case *ast.StarExpr:
			return taintedExpr(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && taintedExpr(e.X)
		case *ast.TypeAssertExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			return isLoad(e)
		}
		return false
	}

	// Pass 1: propagate taint through assignments to a fixed point, so
	// `d := p.Load(); ads := d.ads` taints both d and ads regardless of
	// statement order encountered during the walk.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := pass.TypesInfo.ObjectOf(id)
						if obj != nil && !tainted[obj] && taintedExpr(n.Rhs[i]) {
							tainted[obj] = true
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, id := range n.Names {
						obj := pass.TypesInfo.ObjectOf(id)
						if obj != nil && !tainted[obj] && taintedExpr(n.Values[i]) {
							tainted[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// for k, v := range d.m — v aliases tainted map/slice values.
				if n.Tok == token.DEFINE && taintedExpr(n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							obj := pass.TypesInfo.ObjectOf(id)
							if obj != nil && !tainted[obj] {
								tainted[obj] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// mutationTarget reports whether writing to lhs mutates a loaded
	// snapshot. Reassigning the snapshot variable itself (d = ...) is fine;
	// writing through it (d.f = ..., d.m[k] = ..., *d = ...) is not.
	mutationTarget := func(lhs ast.Expr) bool {
		switch lhs := lhs.(type) {
		case *ast.SelectorExpr:
			return taintedExpr(lhs.X)
		case *ast.IndexExpr:
			return taintedExpr(lhs.X)
		case *ast.StarExpr:
			return taintedExpr(lhs.X)
		}
		return false
	}

	// Pass 2: report mutations.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if mutationTarget(lhs) {
					pass.Reportf(lhs.Pos(), "write to copy-on-write snapshot loaded from atomic.Pointer; clone it, mutate the copy, and Store the result")
				}
			}
		case *ast.IncDecStmt:
			if mutationTarget(n.X) {
				pass.Reportf(n.X.Pos(), "increment of copy-on-write snapshot loaded from atomic.Pointer; clone it, mutate the copy, and Store the result")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") {
				if pass.TypesInfo.ObjectOf(id) == nil || pass.TypesInfo.ObjectOf(id).Pkg() == nil { // builtin
					if len(n.Args) > 0 && taintedExpr(n.Args[0]) {
						pass.Reportf(n.Pos(), "%s on map owned by a copy-on-write snapshot loaded from atomic.Pointer", id.Name)
					}
				}
			}
		}
		return true
	})
}
