// Package errstatus enforces the serving layer's error→status contract.
//
// PR 1 centralized engine-error mapping in one table (the fail function):
// unknown references are 404, duplicates 409, durability failures 503, and
// everything else 400 — nothing the engine returns maps to 500, which is
// reserved for panics caught by the recovery middleware. The contract rots
// one handler at a time: somebody ad-hoc-maps an engine error with
// httpError(w, 400, err.Error()) and unknown-user quietly stops being a
// 404 on that endpoint.
//
// Two rules, both scoped to the package under analysis:
//
//  1. An error value produced by a method call on one of the engine API
//     interfaces (API by default) must not be passed —
//     directly or via err.Error() — to the ad-hoc httpError writer; it must
//     flow through the fail table.
//  2. httpError must never be called with http.StatusInternalServerError (or
//     a literal 500): the recovery middleware owns 500s. The one legitimate
//     site annotates itself with //caarlint:allow errstatus.
package errstatus

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"caar/tools/caarlint/directive"
)

const Doc = `require engine errors to flow through the error→status table

Reports (1) errors returned by engine API interface methods that are passed
to httpError instead of fail, and (2) any httpError call with status 500,
which belongs exclusively to the panic-recovery middleware.`

const name = "errstatus"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	apiTypes = "API"
	sinkName = "fail"
	adhoc    = "httpError"
)

func init() {
	Analyzer.Flags.StringVar(&apiTypes, "apitypes", apiTypes, "comma-separated interface type names whose method errors must flow through the sink")
	Analyzer.Flags.StringVar(&sinkName, "sink", sinkName, "function implementing the error→status table")
	Analyzer.Flags.StringVar(&adhoc, "adhoc", adhoc, "ad-hoc status writer engine errors must not reach")
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := directive.New(pass)

	apiSet := make(map[string]bool)
	for _, t := range strings.Split(apiTypes, ",") {
		if t = strings.TrimSpace(t); t != "" {
			apiSet[t] = true
		}
	}

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

	// isAPICall reports whether call invokes a method through one of the
	// configured interface types declared in this package.
	isAPICall := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		recv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return false
		}
		t := recv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return apiSet[obj.Name()] && obj.Pkg() == pass.Pkg && types.IsInterface(named)
	}

	// Pass 1: record every assignment to an error-typed variable, tagging
	// those whose right-hand side is an engine API call. Handles
	// `err := s.eng.X(...)`, `recs, err = pa.Y(...)` and
	// `if err := s.eng.X(...); err != nil` forms.
	ins.Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
		as := n.(*ast.AssignStmt)
		if len(as.Rhs) != 1 {
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
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn == nil || fn.Name() != adhoc || fn.Pkg() != pass.Pkg {
			return
		}
		if directive.InTestFile(pass, call.Pos()) {
			return
		}
		if len(call.Args) >= 2 {
			if tv, ok := pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if code, ok := constant.Int64Val(tv.Value); ok && code >= 500 && code != 503 {
					if !sup.Allowed(name, call.Pos()) {
						pass.Reportf(call.Pos(),
							"errstatus: %s with status %d; 5xx (except 503 from the durability table) is reserved for the panic-recovery middleware — engine failures map through %s",
							adhoc, code, sinkName)
					}
					return
				}
			}
		}
		for _, arg := range call.Args {
			if mentionsEngineErr(arg, call.Pos()) {
				if !sup.Allowed(name, call.Pos()) {
					pass.Reportf(call.Pos(),
						"errstatus: engine API error passed to %s, bypassing the error→status table; call %s(w, err) so unknown references stay 404, duplicates 409 and durability failures 503",
						adhoc, sinkName)
				}
				return
			}
		}
	})

	sup.Finish(name)
	return nil, nil
}
