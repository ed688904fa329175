package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// hotpathRoots are the CAP engine's read path — the catch-up that brings a
// candidate buffer up to date, the ranking and the view that answer from it —
// and its delivery path, the window pushes every post makes.
var hotpathRoots = map[string]bool{
	"catchUp": true, "rebuild": true, "scope": true, "merge": true, "rank": true,
	"offerStatic": true, "buildView": true, "refreshView": true, "emit": true, "fromView": true,
	"Deliver": true, "DeliverPost": true,
}

// hotpathScope holds the packages the read path lives in: the engines, and
// the analyzer's fixture.
var hotpathScope = map[string]bool{"internal/core": true, "hotpathmap": true}

// hotpathmap keeps the read and delivery paths on the dense ad slots and on
// the posts' records.
//
// Every ad has a uint32 slot, and the ad side's tables — the live ads and
// their reaches, the delta lists, the grid, the candidate buffers and views
// — are arrays and lists indexed or ordered by it. A map keyed by the ad ID
// is left at the edges, where an ad is registered or withdrawn. One lookup
// by ID on the read path runs for every buffered entry of every read, and
// costs a hash and a probe where an index costs a load; nothing fails, the
// read is just slower.
//
// Every post is one record (feed.Post), which windows, owed evictions and
// catch-ups point at, and which carries the post's shared delta list and
// its reference count. A map keyed by the message ID on these paths is a
// table of per-post state beside the record: a lookup per delivery, per
// catch-up and per release, and a lock the shards share around it.
//
// The analyzer walks the static call graph inside the package from
// hotpathRoots and reports every index expression, function literals
// included, into a map whose key type is adstore.AdID or feed.MessageID: a
// named type of that name declared in a package of that name.
func hotpathmap(pass *pass) {
	if !hotpathScope[pass.dir] {
		return
	}
	info := pass.TypesInfo
	type funcInfo struct {
		callees []*types.Func
		lookups []*ast.IndexExpr
	}
	funcs := make(map[*types.Func]*funcInfo)
	var roots []*types.Func // in declaration order, so the chains are stable
	for _, fd := range pass.funcs() {
		fn, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fi := &funcInfo{}
		funcs[fn] = fi
		if hotpathRoots[fn.Name()] {
			roots = append(roots, fn)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if callee := callee(info, n); callee != nil {
					fi.callees = append(fi.callees, callee)
				}
			case *ast.IndexExpr:
				if m, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok && (isNamed(m.Key(), "adstore", "AdID") || isNamed(m.Key(), "feed", "MessageID")) {
					fi.lookups = append(fi.lookups, n)
				}
			}
			return true
		})
	}

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
		for _, ix := range fi.lookups {
			if isNamed(info.TypeOf(ix.X).Underlying().(*types.Map).Key(), "adstore", "AdID") {
				pass.Reportf(ix.Pos(), "%s indexes a map keyed by adstore.AdID on the read path (via %s); read the ad side by slot", types.ExprString(ix.X), it.chain)
			} else {
				pass.Reportf(ix.Pos(), "%s indexes a map keyed by feed.MessageID on the delivery or read path (via %s); reach the post through its record", types.ExprString(ix.X), it.chain)
			}
		}
		for _, callee := range fi.callees {
			if !seen[callee] && funcs[callee] != nil {
				seen[callee] = true
				queue = append(queue, qitem{callee, it.chain + " → " + callee.Name()})
			}
		}
	}
}

// isNamed reports whether t is the named type pkg.name, pkg the last element
// of its package's path.
func isNamed(t types.Type, pkg, name string) bool {
	tn := named(t)
	return tn != nil && tn.Name() == name && tn.Pkg() != nil && path.Base(tn.Pkg().Path()) == pkg
}
