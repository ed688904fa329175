package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// errstatus enforces the serving layer's error→status contract.
//
// Engine-error mapping lives in one table (the fail function): unknown
// references are 404, duplicates 409, durability failures 503, and
// everything else 400 — nothing the engine returns maps to 500, which is
// reserved for panics caught by the recovery middleware. The contract rots
// one handler at a time: somebody ad-hoc-maps an engine error with
// httpError(w, 400, err.Error()) and unknown-user quietly stops being a
// 404 on that endpoint.
//
// Two rules, both scoped to the package under analysis:
//
//  1. An error value produced by a method call on the engine API interface
//     (API) must not be passed — directly or via err.Error() — to the ad-hoc
//     httpError writer; it must flow through the fail table.
//  2. httpError must never be called with a 5xx status other than 503: the
//     recovery middleware owns 500s. The one legitimate site annotates
//     itself with //caarlint:allow errstatus.
func errstatus(pass *pass) {
	// assigns records, per error variable, every assignment position and
	// whether the value came from an engine API call. At a use site the
	// *latest assignment before the use* decides taint, so a handler that
	// first does `at, err := s.at(...)` and later reuses err for an engine
	// call is judged per site, not per variable.
	type assign struct {
		pos     token.Pos
		fromAPI bool
	}
	assigns := make(map[types.Object][]assign)

	// isAPICall reports whether call invokes a method through an API
	// interface declared in this package.
	isAPICall := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return false
		}
		tn := named(recv.Type)
		return tn != nil && tn.Name() == "API" && tn.Pkg() == pass.Pkg && types.IsInterface(tn.Type())
	}

	// Pass 1: record every assignment to an error-typed variable, tagging
	// those whose right-hand side is an engine API call. Handles
	// `err := s.eng.X(...)`, `recs, err = pa.Y(...)` and
	// `if err := s.eng.X(...); err != nil` forms.
	pass.inspect(func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fromAPI := isAPICall(call)
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil {
				continue
			}
			if types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				assigns[obj] = append(assigns[obj], assign{pos: as.Pos(), fromAPI: fromAPI})
			}
		}
	})

	// taintedAt reports whether obj's latest recorded assignment before pos
	// came from an engine API call. Control flow is approximated by token
	// order, which matches the sequential early-return style of the handlers.
	taintedAt := func(obj types.Object, pos token.Pos) bool {
		latest, fromAPI := token.NoPos, false
		for _, a := range assigns[obj] {
			if a.pos < pos && a.pos > latest {
				latest, fromAPI = a.pos, a.fromAPI
			}
		}
		return fromAPI
	}

	// mentionsEngineErr reports whether e references an error value whose
	// dominating assignment is an engine API call (the identifier itself or
	// a method call on it, e.g. err.Error()).
	mentionsEngineErr := func(e ast.Expr, usePos token.Pos) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && taintedAt(obj, usePos) {
					found = true
					return false
				}
			}
			return !found
		})
		return found
	}

	// Pass 2: flag ad-hoc writes of engine errors and any 500.
	pass.inspect(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := callee(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "httpError" || fn.Pkg() != pass.Pkg {
			return
		}
		if len(call.Args) >= 2 {
			if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if code, ok := constant.Int64Val(tv.Value); ok && code >= 500 && code != 503 {
					pass.Reportf(call.Pos(),
						"httpError with status %d; 5xx (except 503 from the durability table) is reserved for the panic-recovery middleware — engine failures map through fail",
						code)
					return
				}
			}
		}
		for _, arg := range call.Args {
			if mentionsEngineErr(arg, call.Pos()) {
				pass.Reportf(call.Pos(),
					"engine API error passed to httpError, bypassing the error→status table; call fail(w, err) so unknown references stay 404, duplicates 409 and durability failures 503")
				return
			}
		}
	})
}
