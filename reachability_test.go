package caar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowed names what stays under internal/ although no non-test
// code calls it, keyed "dir" for a whole package or "dir: Recv.Name".
var reachabilityAllowed = map[string]bool{
	// The fault-injection harness exists for other packages' tests.
	"internal/faultinject": true,
	// The lazy-buffer tests' oracle.
	"internal/core: CAP.BufferSize": true,
	// A test seam: tests silence or capture the server's log through it.
	"internal/server: WithLogger": true,
}

// implicitMethods are called through standard-library interfaces (fmt,
// errors, sort, container/heap, encoding/json, io, net/http), never by name.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestInternalCodeHasNonTestReferences fails when a function or method under
// internal/ is referenced only by tests: code nothing runs is deleted along
// with its tests, not kept alive by them.
//
// The scan is by name, over the syntax of every .go file in the module: a
// declaration counts as used when its bare name appears as an identifier in
// any non-test file other than as a declaration. That makes it cheap and
// build-tag blind, and it means a method whose name collides with any other
// identifier in use is never reported — Collector.Reset passed because
// HeavyHitters.Reset is called, CountMin.Depth because ring.Ring.Depth is,
// CountMin.Merge because of the metrics package's Merge. When adding a
// method with a common name, check its callers by hand (gopls references,
// or a go/types pass over the module).
func TestInternalCodeHasNonTestReferences(t *testing.T) {
	type decl struct{ key, dir, name string }
	var decls []decl
	used := map[string]bool{} // names used by non-test code
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "tools") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || fd.Name.Name == "init" || fd.Name.Name == "main" {
				continue
			}
			key := dir + ": " + fd.Name.Name
			if fd.Recv != nil {
				if implicitMethods[fd.Name.Name] {
					continue
				}
				key = dir + ": " + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, dir, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("scan found no declarations under internal/")
	}
	var unused []string
	for _, d := range decls {
		if used[d.name] || reachabilityAllowed[d.dir] || reachabilityAllowed[d.key] {
			continue
		}
		unused = append(unused, d.key)
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s has no non-test reference: delete it with its tests, or allowlist it with the reason", k)
	}
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
