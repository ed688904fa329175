package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

var guardRE = regexp.MustCompile(`guarded by (\w+)`)

// atomicfield enforces consistent synchronization discipline on struct
// fields.
//
// Two rules, both aimed at the mixed-access bugs the race detector only
// catches when the schedule cooperates:
//
//  1. A field that is ever accessed through sync/atomic function calls
//     (atomic.LoadUint64(&s.n), atomic.AddInt64(&s.n, 1), ...) must never
//     be read or written plainly anywhere else in the package. One plain
//     access next to atomic ones is a data race by construction — the
//     compiler is free to tear, cache, or reorder it. Fields of the typed
//     atomics (atomic.Uint64, atomic.Pointer[T], ...) are safe by
//     construction and need no checking: they have no plain access path.
//
//  2. A field annotated with a trailing `// guarded by <mu>` line comment
//     on its declaration must only be accessed in
//     functions where <mu> (a sibling mutex field of the same struct) is
//     held at the access point, tracked linearly through the body the same
//     way lockorder tracks held sets. Functions whose name ends in
//     "Locked" are exempt — that suffix is the repo's caller-holds-the-lock
//     convention (drainLocked, maybeSyncLocked) — as are constructors
//     (func New*/new* or any function returning the struct type), since a
//     value that hasn't been published yet has no concurrent readers.
//
// Deliberate exceptions are annotated in place:
//
//	n := s.approx //caarlint:allow atomicfield racy read is intentional, stats only
func atomicfield(pass *pass) {
	// ---- collect guarded fields: "Struct.field" -> guard key "Struct.mu".
	guards := map[string]string{}
	pass.inspect(func(n ast.Node) {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return
		}
		for _, f := range st.Fields.List {
			// Only the trailing line comment counts: the annotation is a
			// deliberate per-field marker, not prose in a doc comment that
			// happens to mention another field's guard.
			if f.Comment == nil {
				continue
			}
			m := guardRE.FindStringSubmatch(f.Comment.Text())
			if m == nil {
				continue
			}
			for _, fname := range f.Names {
				guards[ts.Name.Name+"."+fname.Name] = ts.Name.Name + "." + m[1]
			}
		}
	})

	// ---- collect atomically-accessed fields: args &s.f to sync/atomic
	// functions. atomicArgs marks the exact &f expressions that ARE the
	// atomic access, so the plain-access scan below skips them.
	atomicFields := map[string]token.Pos{} // field key -> first atomic site
	atomicArgs := map[ast.Expr]bool{}
	pass.inspect(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := callee(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
			return
		}
		if callee.Type().(*types.Signature).Recv() != nil {
			return // typed-atomic method (atomic.Uint64.Load): safe by construction
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			sel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if key := fieldKey(pass, sel); key != "" {
				if _, dup := atomicFields[key]; !dup {
					atomicFields[key] = call.Pos()
				}
				atomicArgs[un.X] = true
			}
		}
	})

	// ---- scan every function for plain accesses to atomic fields and for
	// guarded-field accesses without the lock held.
	for _, fd := range pass.funcs() {
		exemptGuard := strings.HasSuffix(fd.Name.Name, "Locked") || isConstructor(pass, fd)

		// Held-set tracking, linear in source order; deferred unlocks hold
		// to function end (same model as lockorder).
		deferred := deferredCalls(fd.Body)
		held := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := callee(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				switch {
				case isAcquire(callee):
					held[lockKey(pass, n)] = true
				case isRelease(callee) && !deferred[n]:
					delete(held, lockKey(pass, n))
				}
			case *ast.SelectorExpr:
				key := fieldKey(pass, n)
				if key == "" {
					return true
				}
				if pos, isAtomic := atomicFields[key]; isAtomic && !atomicArgs[n] {
					pass.Reportf(n.Pos(), "plain access to %s, which is accessed atomically at %s; use sync/atomic everywhere or neither",
						key, pass.Fset.Position(pos))
					return true
				}
				if guard, ok := guards[key]; ok && !exemptGuard && !held[guard] {
					pass.Reportf(n.Pos(), "%s accessed without holding %s (declared `// guarded by %s`); hold the lock or rename the function *Locked",
						key, guard, guard[strings.Index(guard, ".")+1:])
				}
			}
			return true
		})
	}
}

// fieldKey names a field selection "Struct.field"; "" for anything else.
func fieldKey(pass *pass, sel *ast.SelectorExpr) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	tn := named(s.Recv())
	if tn == nil {
		return ""
	}
	return tn.Name() + "." + sel.Sel.Name
}

// isConstructor reports whether fd returns the type whose fields it might
// initialize, or follows the New*/new* naming convention.
func isConstructor(pass *pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false // methods run on published values
	}
	if strings.HasPrefix(fd.Name.Name, "New") || strings.HasPrefix(fd.Name.Name, "new") {
		return true
	}
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if tn := named(pass.TypesInfo.TypeOf(r.Type)); tn != nil {
			if _, ok := tn.Type().Underlying().(*types.Struct); ok && tn.Pkg() == pass.Pkg {
				return true
			}
		}
	}
	return false
}
