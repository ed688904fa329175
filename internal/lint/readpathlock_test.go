package lint

import (
	"go/ast"
	"go/types"
)

// readPathRoots are the serving-path entry points the walk starts from.
var readPathRoots = map[string]bool{
	"Recommend": true, "RecommendTraced": true, "recommend": true, "deliver": true, "ServeImpression": true,
}

// readpathlock enforces the serving read path's lock-freedom.
//
// Recommend/deliver/ServeImpression resolve names against a copy-on-write
// directory loaded with one atomic pointer read, taking zero global locks.
// One accidentally reintroduced mutex on that path silently destroys the
// sustained hot-path throughput the system exists for, and no test fails —
// the code is still correct, just slow and convoyed.
//
// The analyzer walks the static call graph inside the analyzed package from
// readPathRoots and reports every reachable sync.Mutex / sync.RWMutex
// Lock/RLock/TryLock, including those inside function literals launched
// from the path (a fan-out goroutine convoyed on a lock is still on the
// serving path). Unlock is not an acquisition: an unlock without a
// reachable lock is dead code, not a throughput hazard.
//
// Intentional serialization points — the per-shard core lock is the
// designed one — are annotated in place:
//
//	sh.mu.Lock() //caarlint:allow readpathlock per-shard lock is the designed serialization point
func readpathlock(pass *pass) {
	// lockSite is one mutex acquisition found in a function body.
	type lockSite struct {
		call *ast.CallExpr
		name string // e.g. "sync.Mutex.Lock"
	}
	type funcInfo struct {
		callees []*types.Func
		locks   []lockSite
	}
	funcs := make(map[*types.Func]*funcInfo)
	var roots []*types.Func // in declaration order, so the chains are stable

	for _, fd := range pass.funcs() {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fi := &funcInfo{}
		funcs[fn] = fi
		if readPathRoots[fn.Name()] {
			roots = append(roots, fn)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := callee(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if isAcquire(callee) {
				mutex := named(callee.Type().(*types.Signature).Recv().Type())
				fi.locks = append(fi.locks, lockSite{call: call, name: "sync." + mutex.Name() + "." + callee.Name()})
				return true
			}
			fi.callees = append(fi.callees, callee)
			return true
		})
	}

	// BFS from the roots; record the shortest chain for diagnostics.
	type qitem struct {
		fn    *types.Func
		chain string
	}
	var queue []qitem
	seen := make(map[*types.Func]bool)
	for _, fn := range roots {
		queue = append(queue, qitem{fn, fn.Name()})
		seen[fn] = true
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fi := funcs[it.fn]
		for _, ls := range fi.locks {
			pass.Reportf(ls.call.Pos(),
				"%s acquired on the serving read path (via %s); the read path must stay lock-free — use the copy-on-write snapshot or annotate a designed serialization point",
				ls.name, it.chain)
		}
		for _, callee := range fi.callees {
			if !seen[callee] && funcs[callee] != nil {
				seen[callee] = true
				queue = append(queue, qitem{callee, it.chain + " → " + callee.Name()})
			}
		}
	}
}

// isAcquire reports whether fn is a sync.Mutex or sync.RWMutex acquisition.
func isAcquire(fn *types.Func) bool {
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return isMethodOf(fn, "sync", "Mutex", "RWMutex")
	}
	return false
}
