package lint

import (
	"go/ast"
	"go/types"
)

// goMaxDepth bounds the transitive walk through same-package callees.
const goMaxDepth = 4

// goroutinelife verifies that every goroutine launched in production code
// is tied to a shutdown path.
//
// The write pipeline makes goroutine lifecycle a first-class invariant: the
// committer and applier must exit on Close or a shutdown drains forever,
// and the adserver's idle-fsync ticker must stop with the server or every
// test that starts one leaks it. A leaked forever-goroutine is invisible to
// the race detector and to unit tests — it only shows up as a goroutine
// count that climbs in production.
//
// The analyzer inspects each `go` statement and resolves the launched body
// (a func literal, or a same-package function/method, followed transitively
// through same-package calls). A goroutine conforms when any of these
// holds:
//
//   - an argument of the `go` call carries the shutdown signal: a
//     context.Context, a channel, or a Done() call (`go t.Run(ctx.Done())`);
//   - the body receives from a channel other than a time.Ticker/time.Timer
//     .C or time.After/time.Tick — via select, a direct receive, or
//     range-over-channel (which exits when the channel closes, the
//     applier's contract);
//   - the body calls Done() on a sync.WaitGroup and the package contains a
//     matching Wait() (the committer/fan-out join contract);
//   - the body contains no unbounded loop at all: a one-shot goroutine that
//     runs to completion needs no shutdown signal.
//
// An unbounded loop is a `for` with no condition or a range over a ticker
// channel. Receiving only from a ticker .C does not count as a shutdown
// path — the ticker never closes its channel, which is exactly the leak
// this analyzer exists to catch. Goroutines whose body cannot be seen
// (another package's function) and that take no shutdown argument are also
// reported: the contract must be visible at the launch site.
//
// Deliberate exceptions are annotated in place:
//
//	go srv.ListenAndServe() //caarlint:allow goroutinelife exits with the process
func goroutinelife(pass *pass) {
	// Bodies of same-package functions, for resolving `go p.committer()`.
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, fd := range pass.funcs() {
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			bodies[fn] = fd.Body
		}
	}
	// Whether any function in the package waits on a WaitGroup; Done()
	// without a reachable Wait() is not a lifecycle.
	pkgHasWait := false
	pass.inspect(func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := callee(pass.TypesInfo, call); callee != nil && callee.Name() == "Wait" && isMethodOf(callee, "sync", "WaitGroup") {
				pkgHasWait = true
			}
		}
	})

	pass.inspect(func(n ast.Node) {
		g, ok := n.(*ast.GoStmt)
		if !ok || hasShutdownArg(pass, g.Call) {
			return
		}
		body, targetName := spawnedBody(pass, g.Call, bodies)
		if body == nil {
			pass.Reportf(g.Pos(), "cannot see the body of goroutine target %s and no context/stop-channel argument is passed; the shutdown contract must be visible at the launch site", targetName)
			return
		}
		w := &walker{pass: pass, bodies: bodies}
		w.walk(body, 0, map[*ast.BlockStmt]bool{})
		if w.unboundedLoop && !w.shutdownRecv && !(w.wgDone && pkgHasWait) {
			pass.Reportf(g.Pos(), "goroutine loops forever with no shutdown path: select/receive on a context, stop, or closeable channel, register with a waited WaitGroup, or bound the loop")
		}
	})
}

// walker accumulates lifecycle evidence over a body and its same-package
// callees.
type walker struct {
	pass   *pass
	bodies map[*types.Func]*ast.BlockStmt

	unboundedLoop bool
	shutdownRecv  bool
	wgDone        bool
}

func (w *walker) walk(body *ast.BlockStmt, depth int, seen map[*ast.BlockStmt]bool) {
	if depth > goMaxDepth || seen[body] {
		return
	}
	seen[body] = true
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				w.unboundedLoop = true
			}
		case *ast.RangeStmt:
			if isChan(w.pass, n.X) {
				if isTickerChan(w.pass, n.X) {
					w.unboundedLoop = true
				} else {
					w.shutdownRecv = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !isTickerChan(w.pass, n.X) {
				w.shutdownRecv = true
			}
		case *ast.CallExpr:
			callee := callee(w.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			if callee.Name() == "Done" && isMethodOf(callee, "sync", "WaitGroup") {
				w.wgDone = true
			}
			if callee.Pkg() == w.pass.Pkg {
				if b, ok := w.bodies[callee]; ok {
					w.walk(b, depth+1, seen)
				}
			}
		}
		return true
	})
}

// hasShutdownArg reports whether the go call passes a shutdown signal:
// a context.Context, any channel, or a Done() call.
func hasShutdownArg(pass *pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Chan); ok {
			return true
		}
		if n, ok := t.(*types.Named); ok {
			if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
		}
		if c, ok := arg.(*ast.CallExpr); ok {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				return true
			}
		}
	}
	return false
}

// spawnedBody resolves the block the goroutine will execute: a func
// literal's body, or the body of a same-package function/method. Returns
// nil and a display name when the body is not visible.
func spawnedBody(pass *pass, call *ast.CallExpr, bodies map[*types.Func]*ast.BlockStmt) (*ast.BlockStmt, string) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return lit.Body, "func literal"
	}
	callee := callee(pass.TypesInfo, call)
	if callee == nil {
		return nil, types.ExprString(call.Fun)
	}
	if b, ok := bodies[callee]; ok {
		return b, callee.Name()
	}
	return nil, callee.FullName()
}

func isChan(pass *pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isTickerChan reports whether e is a channel that will never close on
// shutdown: a time.Ticker/time.Timer .C field, or a time.After/time.Tick
// call. Receiving from one is not a shutdown path.
func isTickerChan(pass *pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if e.Sel.Name != "C" {
			return false
		}
		tn := named(pass.TypesInfo.TypeOf(e.X))
		return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == "time" &&
			(tn.Name() == "Ticker" || tn.Name() == "Timer")
	case *ast.CallExpr:
		callee := callee(pass.TypesInfo, e)
		return callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "time" &&
			(callee.Name() == "After" || callee.Name() == "Tick")
	}
	return false
}
