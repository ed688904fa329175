// Package readpathlock enforces the serving read path's lock-freedom.
//
// PR 4 made Recommend/deliver/ServeImpression resolve names against a
// copy-on-write directory loaded with one atomic pointer read, taking zero
// global locks. One accidentally reintroduced mutex on that path silently
// destroys the sustained hot-path throughput the system exists for, and no
// test fails — the code is still correct, just slow and convoyed.
//
// The analyzer walks the static call graph inside the analyzed package from
// a configurable set of root functions (the serving entry points) and
// reports every reachable sync.Mutex / sync.RWMutex acquisition, including
// those inside function literals launched from the path (a fan-out
// goroutine convoyed on a lock is still on the serving path).
//
// Intentional serialization points — the per-shard core lock is the
// designed one — are annotated in place:
//
//	sh.mu.Lock() //caarlint:allow readpathlock per-shard lock is the designed serialization point
package readpathlock

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"caar/tools/caarlint/directive"
)

const Doc = `report lock acquisitions reachable from the serving read path

Walks static calls from the configured root functions (default: the engine's
Recommend/deliver/ServeImpression family) within the package under analysis
and reports any reachable sync.Mutex or sync.RWMutex Lock/RLock/TryLock.
Annotate designed serialization points with
//caarlint:allow readpathlock <reason>.`

const name = "readpathlock"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// roots names the serving-path entry points, comma separated. Overridable
// so other repos (and the analyzer's own fixtures) can anchor the walk
// elsewhere.
var roots = "Recommend,RecommendTraced,recommend,deliver,ServeImpression"

func init() {
	Analyzer.Flags.StringVar(&roots, "roots", roots, "comma-separated root function names anchoring the read-path walk")
}

// lockMethods are the sync.Mutex/RWMutex acquisition methods. Unlock is
// deliberately absent: an unlock without a reachable lock is dead code, not
// a throughput hazard.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := directive.New(pass)

	rootSet := make(map[string]bool)
	for _, r := range strings.Split(roots, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rootSet[r] = true
		}
	}

	// lockSite is one mutex acquisition found in a function body.
	type lockSite struct {
		call *ast.CallExpr
		name string // e.g. "sync.Mutex.Lock"
	}
	type funcInfo struct {
		decl    *ast.FuncDecl
		callees []*types.Func
		locks   []lockSite
	}
	funcs := make(map[*types.Func]*funcInfo)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		fi := &funcInfo{decl: fd}
		funcs[fn] = fi
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
			if !ok || callee == nil {
				return true
			}
			if mutex := lockedMutex(callee); mutex != "" {
				fi.locks = append(fi.locks, lockSite{call: call, name: mutex + "." + callee.Name()})
				return true
			}
			fi.callees = append(fi.callees, callee)
			return true
		})
	})

	// BFS from the roots; record the shortest chain for diagnostics.
	type qitem struct {
		fn    *types.Func
		chain string
	}
	var queue []qitem
	seen := make(map[*types.Func]bool)
	for fn, fi := range funcs {
		if rootSet[fn.Name()] && !directive.InTestFile(pass, fi.decl.Pos()) {
			queue = append(queue, qitem{fn, fn.Name()})
			seen[fn] = true
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fi := funcs[it.fn]
		if fi == nil {
			continue
		}
		for _, ls := range fi.locks {
			if sup.Allowed(name, ls.call.Pos()) {
				continue
			}
			pass.Reportf(ls.call.Pos(),
				"readpathlock: %s acquired on the serving read path (via %s); the read path must stay lock-free — use the copy-on-write snapshot or annotate a designed serialization point",
				ls.name, it.chain)
		}
		for _, callee := range fi.callees {
			if !seen[callee] && funcs[callee] != nil {
				seen[callee] = true
				queue = append(queue, qitem{callee, it.chain + " → " + callee.Name()})
			}
		}
	}

	sup.Finish(name)
	return nil, nil
}

// lockedMutex returns "sync.Mutex" / "sync.RWMutex" when fn is one of their
// acquisition methods, else "".
func lockedMutex(fn *types.Func) string {
	if !lockMethods[fn.Name()] {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
		return "sync." + obj.Name()
	}
	return ""
}
