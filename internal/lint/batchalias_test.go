package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// popNames are the ring-dequeue method names whose pointer/slice results
// carry the no-retain contract.
var popNames = map[string]bool{"pop": true, "Pop": true, "dequeue": true, "Dequeue": true}

// batchalias enforces the ring hand-off contract of the batched ingest
// pipeline.
//
// The write path moves slices of work between stages by hand-off: a
// producer fills a batch, passes it to Engine.PostBatch / CheckInBatch /
// journal.AppendBatch, and reuses or recycles the memory the moment the
// call returns. Entries popped from the ingest/hot-key MPSC rings carry the
// same contract. If a callee retains an alias past the call — stores it in
// a field, sends it down a channel, or lets a spawned goroutine keep it —
// the next producer write scribbles over data another goroutine is still
// reading. The race detector only sees this when the reuse happens to
// interleave; the contract is statically checkable, so check it statically.
//
// The analyzer taints, per function:
//
//   - slice parameters of functions whose name ends in "Batch";
//   - locals assigned from ring pop/dequeue methods with pointer- or
//     slice-typed results (value-typed pops are copies and carry no
//     contract).
//
// Aliases propagate through assignment of the bare value, re-slicing
// (b[1:]), parenthesization, address-taking, and append-as-element
// (append(xs, tainted) shares the pointer). `append(dst, tainted...)` and
// copy(dst, tainted) are the sanctioned escapes: they copy the elements
// into memory the callee owns. A tainted value must not be:
//
//   - stored to a struct field,
//   - sent to a channel,
//   - used by a goroutine spawned in the function — unless a Wait() call
//     follows the go statement in the same body (the engine's fan-out
//     join: the batch outlives the goroutines, not vice versa).
//
// Deliberate ownership transfers are annotated in place:
//
//	q.pending = batch //caarlint:allow batchalias ownership transferred, producer never reuses
func batchalias(pass *pass) {
	for _, fd := range pass.funcs() {
		tainted := map[types.Object]string{} // object -> origin description
		if strings.HasSuffix(fd.Name.Name, "Batch") {
			for _, field := range fd.Type.Params.List {
				t := pass.TypesInfo.TypeOf(field.Type)
				if t == nil {
					continue
				}
				if _, ok := t.Underlying().(*types.Slice); !ok {
					continue
				}
				for _, pn := range field.Names {
					if obj := pass.TypesInfo.Defs[pn]; obj != nil {
						tainted[obj] = "batch parameter " + pn.Name
					}
				}
			}
		}

		// taintOf returns the origin of the taint e aliases, or "".
		var taintOf func(e ast.Expr) string
		taintOf = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[e]; obj != nil {
					return tainted[obj]
				}
			case *ast.ParenExpr:
				return taintOf(e.X)
			case *ast.SliceExpr:
				return taintOf(e.X)
			case *ast.UnaryExpr:
				return taintOf(e.X)
			case *ast.CallExpr:
				if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" {
					if e.Ellipsis.IsValid() {
						return "" // append(dst, s...) copies the elements: sanctioned
					}
					for _, a := range e.Args[1:] {
						if o := taintOf(a); o != "" {
							return o // append-as-element shares the pointer
						}
					}
				}
			}
			return ""
		}

		// popOrigin recognizes ring dequeues with pointer/slice results.
		popOrigin := func(e ast.Expr) string {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return ""
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !popNames[sel.Sel.Name] {
				return ""
			}
			callee := callee(pass.TypesInfo, call)
			if callee == nil || callee.Type().(*types.Signature).Recv() == nil {
				return ""
			}
			t := pass.TypesInfo.TypeOf(e)
			if t == nil {
				return ""
			}
			switch t.Underlying().(type) {
			case *types.Pointer, *types.Slice:
				return "ring entry from " + sel.Sel.Name + "()"
			}
			return ""
		}

		report := func(at ast.Node, origin, how string) {
			pass.Reportf(at.Pos(), "%s %s; the caller recycles batch memory after the hand-off — copy with append(dst, s...) instead", origin, how)
		}

		// waitFollows reports whether a WaitGroup-style Wait() call appears
		// after pos in this body: the fan-out join exemption.
		waitFollows := func(after ast.Node) bool {
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && call.Pos() > after.End() {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						found = true
					}
				}
				return !found
			})
			return found
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					lhs := n.Lhs[i]
					if origin := taintOf(rhs); origin != "" {
						switch l := lhs.(type) {
						case *ast.SelectorExpr:
							if s, ok := pass.TypesInfo.Selections[l]; ok && s.Kind() == types.FieldVal {
								report(n, origin, "retained in field "+l.Sel.Name)
							}
						case *ast.IndexExpr:
							// Storing into an element of a field-held map or
							// slice retains just the same.
							if fs, ok := l.X.(*ast.SelectorExpr); ok {
								if s, ok := pass.TypesInfo.Selections[fs]; ok && s.Kind() == types.FieldVal {
									report(n, origin, "retained in field "+fs.Sel.Name)
								}
							}
						case *ast.Ident:
							if obj := pass.TypesInfo.Defs[l]; obj != nil {
								tainted[obj] = origin
							} else if obj := pass.TypesInfo.Uses[l]; obj != nil {
								tainted[obj] = origin
							}
						}
						continue
					}
					if origin := popOrigin(rhs); origin != "" {
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := pass.TypesInfo.Defs[id]; obj != nil {
								tainted[obj] = origin
							} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
								tainted[obj] = origin
							}
						}
					}
				}
			case *ast.SendStmt:
				if origin := taintOf(n.Value); origin != "" {
					report(n, origin, "sent to a channel")
				}
			case *ast.GoStmt:
				if waitFollows(n) {
					return true
				}
				for _, arg := range n.Call.Args {
					if origin := taintOf(arg); origin != "" {
						report(n, origin, "handed to a spawned goroutine")
					}
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(inner ast.Node) bool {
						id, ok := inner.(*ast.Ident)
						if !ok {
							return true
						}
						if obj := pass.TypesInfo.Uses[id]; obj != nil {
							if origin := tainted[obj]; origin != "" {
								report(n, origin, "captured by a spawned goroutine")
								return false
							}
						}
						return true
					})
				}
			}
			return true
		})
	}
}
