package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"sync"
)

// lockOrder is the canonical acquisition order, outermost first: each
// lock's rank in lockorder.txt (one lock per line, '#' comments), read when
// the test runs.
var lockOrder = sync.OnceValue(func() map[string]int {
	text, err := os.ReadFile("lockorder.txt")
	if err != nil {
		panic(err)
	}
	canon := map[string]int{}
	for _, line := range strings.Split(string(text), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); line != "" {
			canon[line] = len(canon)
		}
	}
	return canon
})

// edge is one observed nesting: to was acquired while from was held.
type edge struct{ from, to string }

// site is where an edge was first observed, with the call chain when the
// acquisition happened inside a callee.
type site struct {
	pos token.Pos
	via string // "" for a direct acquisition, callee name otherwise
}

// pendingCall is a same-package call made while locks were held; resolved
// against the callee's transitive acquisition set after all bodies are
// scanned.
type pendingCall struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

type funcScan struct {
	direct  map[string]token.Pos // locks acquired anywhere in the body
	callees []*types.Func        // all same-package callees (for transitivity)
	pending []pendingCall
}

// lockorder enforces a canonical lock-acquisition order and the absence of
// lock cycles.
//
// The engine has several cooperating mutexes: the copy-on-write directory
// writer lock (Engine.dirMu), the per-shard core locks (shard.mu), the
// journal writer lock (Writer.mu) and the hot-key dimension locks. None of
// them may ever nest against the canonical order — an ABBA inversion is a
// deadlock that no unit test reliably reproduces, because it needs two
// goroutines to interleave exactly wrong.
//
// The analyzer scans every function body in source order, tracking which
// mutexes are held at each point (an Unlock in a branch conservatively
// releases; a deferred Unlock holds to function end), and follows calls to
// same-package functions ("call-graph-lite") so a lock taken three frames
// down still registers as nested. Every nested acquisition becomes an edge
// held→acquired in a per-package lock graph. It then reports:
//
//   - acquisitions that contradict the canonical order in lockorder.txt
//     (outermost first);
//   - self edges (a mutex acquired while already held — self-deadlock);
//   - cycles among the remaining edges (ABBA and longer).
//
// Locks are named by the struct type declaring the mutex field
// ("Engine.dirMu", "shard.mu") or by the variable name for non-field
// mutexes, so the graph is stable across receivers and call sites.
// Deliberate nesting outside the canonical list is annotated in place:
//
//	e.statsMu.Lock() //caarlint:allow lockorder stats snapshot nests read-only under dirMu
func lockorder(pass *pass) {
	canon := lockOrder()

	// Every site of an edge is kept: suppressing one occurrence of an
	// inversion must not silence the same inversion elsewhere.
	edges := map[edge][]site{}
	scans := map[*types.Func]*funcScan{}
	addEdge := func(e edge, s site) {
		for _, prev := range edges[e] {
			if prev.pos == s.pos {
				return
			}
		}
		edges[e] = append(edges[e], s)
	}

	for _, fd := range pass.funcs() {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fs := &funcScan{direct: map[string]token.Pos{}}
		scans[fn] = fs

		deferred := deferredCalls(fd.Body)

		var held []string // acquisition order
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if isMethodOf(callee, "sync", "Mutex", "RWMutex") {
				key := lockKey(pass, call)
				if key == "" {
					return true
				}
				switch {
				case isAcquire(callee):
					for _, h := range held {
						addEdge(edge{h, key}, site{pos: call.Pos()})
					}
					if slices.Contains(held, key) {
						addEdge(edge{key, key}, site{pos: call.Pos()})
					} else {
						held = append(held, key)
					}
				case isRelease(callee) && !deferred[call]:
					held = removeLast(held, key)
				}
				return true
			}
			if callee.Pkg() == pass.Pkg {
				fs.callees = append(fs.callees, callee)
				if len(held) > 0 {
					fs.pending = append(fs.pending, pendingCall{
						callee: callee,
						held:   append([]string(nil), held...),
						pos:    call.Pos(),
					})
				}
			}
			return true
		})
		// Record every acquisition in the body for the transitive set.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callee(pass.TypesInfo, call)
			if callee == nil || !isAcquire(callee) {
				return true
			}
			if key := lockKey(pass, call); key != "" {
				if _, dup := fs.direct[key]; !dup {
					fs.direct[key] = call.Pos()
				}
			}
			return true
		})
	}

	// Transitive acquisition sets, memoized over the same-package call graph.
	memo := map[*types.Func]map[string]bool{}
	var acquires func(fn *types.Func, seen map[*types.Func]bool) map[string]bool
	acquires = func(fn *types.Func, seen map[*types.Func]bool) map[string]bool {
		if m, ok := memo[fn]; ok {
			return m
		}
		if seen[fn] {
			return nil
		}
		seen[fn] = true
		fs := scans[fn]
		if fs == nil {
			return nil
		}
		out := map[string]bool{}
		for k := range fs.direct {
			out[k] = true
		}
		for _, c := range fs.callees {
			for k := range acquires(c, seen) {
				out[k] = true
			}
		}
		memo[fn] = out
		return out
	}
	for fn, fs := range scans {
		for _, pc := range fs.pending {
			for k := range acquires(pc.callee, map[*types.Func]bool{fn: true}) {
				for _, h := range pc.held {
					addEdge(edge{h, k}, site{pos: pc.pos, via: pc.callee.Name()})
				}
			}
		}
	}

	// Classify. Canonical-order violations are reported first and removed
	// from the cycle graph: fixing the inversion breaks the cycle, so one
	// finding per root cause.
	remaining := map[edge][]site{}
	for e, sites := range edges {
		if e.from == e.to {
			for _, s := range sites {
				pass.Reportf(s.pos, "%s acquired%s while already held — self-deadlock", e.to, viaSuffix(s))
			}
			continue
		}
		fi, fok := canon[e.from]
		ti, tok := canon[e.to]
		if fok && tok && fi > ti {
			for _, s := range sites {
				pass.Reportf(s.pos, "%s acquired%s while holding %s, against the canonical order in internal/lint/lockorder.txt (%s before %s)",
					e.to, viaSuffix(s), e.from, e.to, e.from)
			}
			continue
		}
		remaining[e] = sites
	}
	// Cycles among the remaining edges: an edge is part of a cycle when its
	// head can reach its tail.
	adj := map[string][]string{}
	for e := range remaining {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	for e, sites := range remaining {
		if reaches(e.to, e.from) {
			for _, s := range sites {
				pass.Reportf(s.pos, "lock cycle: %s acquired%s while holding %s, but %s is elsewhere held while acquiring %s — ABBA deadlock",
					e.to, viaSuffix(s), e.from, e.to, e.from)
			}
		}
	}
}

// viaSuffix renders the call-chain note for indirect acquisitions.
func viaSuffix(s site) string {
	if s.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via call to %s)", s.via)
}

// lockKey names the mutex being locked: "<StructType>.<field>" for mutex
// fields, the variable name otherwise, "" when the receiver shape is not
// recognized.
func lockKey(pass *pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		// base.field — name by the struct type that declares the field.
		if fsel, ok := pass.TypesInfo.Selections[x]; ok && fsel.Kind() == types.FieldVal {
			if tn := named(fsel.Recv()); tn != nil {
				return tn.Name() + "." + x.Sel.Name
			}
		}
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// removeLast deletes the most recent occurrence of v.
func removeLast(s []string, v string) []string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// isRelease reports whether fn is a sync.Mutex or sync.RWMutex release.
func isRelease(fn *types.Func) bool {
	return (fn.Name() == "Unlock" || fn.Name() == "RUnlock") && isMethodOf(fn, "sync", "Mutex", "RWMutex")
}

// deferredCalls returns the calls body defers, including those inside a
// deferred func literal: they run at return, not where they appear, so a
// deferred Unlock keeps its lock held to the end of the function.
func deferredCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
			if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok {
						deferred[c] = true
					}
					return true
				})
			}
		}
		return true
	})
	return deferred
}
