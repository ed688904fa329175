package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maporderScope holds the packages whose float sums reach a score: the text
// pipeline, the indexes, the feed window, the engines and the facade; and
// the analyzer's fixture.
var maporderScope = map[string]bool{
	"internal/textproc": true, "internal/index": true, "internal/feed": true, "internal/core": true, ".": true,
	"maporder": true,
}

// maporder keeps scores bit-deterministic.
//
// Float addition is not associative, so a sum depends on the order of its
// terms, and Go randomises the order of a range over a map on every loop.
// A float that accumulates across the iterations of such a range — a total,
// a field, an element of a slice — can come out different on every call,
// and two engines fed the same operations then rank near-ties differently.
// The analyzer reports every float assignment in the body of a range over a
// map that adds to (or scales) a value from an earlier iteration: an
// op-assignment (+=, -=, *=, /=), or x = x ⊕ …, whose target is declared
// outside the range statement. A target indexed by the range key is exempt:
// each key is visited once, so a per-key sum is exact. Sum over a sorted
// slice instead (textproc.SparseVector).
func maporder(pass *pass) {
	if !maporderScope[pass.dir] {
		return
	}
	info := pass.TypesInfo
	reported := map[token.Pos]bool{} // a range nested in another is walked twice
	pass.inspect(func(n ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return
		}
		var key types.Object
		if id, ok := rs.Key.(*ast.Ident); ok {
			key = info.ObjectOf(id)
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs := as.Lhs[0]
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			case token.ASSIGN:
				if !mentions(info, as.Rhs[0], root(info, lhs)) {
					return true
				}
			default:
				return true
			}
			if !isFloat(info.TypeOf(lhs)) || indexedBy(info, lhs, key) {
				return true
			}
			if obj := root(info, lhs); obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
				return true // declared in the loop: it starts afresh each iteration
			}
			if reported[as.Pos()] {
				return true
			}
			reported[as.Pos()] = true
			pass.Reportf(as.Pos(), "float %s accumulates across iterations of a range over a map, in random order; sum over a sorted slice", types.ExprString(lhs))
			return true
		})
	})
}

// isFloat reports whether t is a floating-point or complex type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// root returns the variable an assignment target is rooted at (x of x.f[i]),
// or nil.
func root(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// indexedBy reports whether e is an index expression whose index is the
// variable key.
func indexedBy(info *types.Info, e ast.Expr, key types.Object) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok || key == nil {
		return false
	}
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	return ok && info.ObjectOf(id) == key
}

// mentions reports whether e refers to obj.
func mentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && obj != nil && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
