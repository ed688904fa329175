package caar

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowed names what stays although no non-test code uses it,
// keyed "dir" for a whole package or "dir: Recv.Name".
var reachabilityAllowed = map[string]bool{
	// The fault-injection harness exists for other packages' tests.
	"internal/faultinject": true,
	// The lazy-buffer tests' oracle.
	"internal/core: CAP.BufferSize": true,
	// A test seam: tests silence or capture the server's log through it.
	"internal/server: WithLogger": true,
}

// TestModuleCodeHasNonTestReferences fails when a function, method or
// interface method anywhere in the module is used only by tests: code
// nothing runs is deleted along with its tests, not kept alive by them.
// bench/ counts as a user, but its own declarations are not reported — they
// change only with the benchmark.
func TestModuleCodeHasNonTestReferences(t *testing.T) {
	unused, err := unreferenced(".", func(dir string) bool {
		return dir == "bench" || strings.HasPrefix(dir, "bench/")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range unused {
		if reachabilityAllowed[k] || reachabilityAllowed[k[:strings.Index(k, ":")]] {
			continue
		}
		t.Errorf("%s has no non-test reference: delete it with its tests, or allowlist it with the reason", k)
	}
}

// TestReachabilityFixture runs the guard over testdata/reachability, one
// package per rule, and requires exactly the findings its cases plant.
func TestReachabilityFixture(t *testing.T) {
	got, err := unreferenced("testdata/reachability", func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"collide: A.Reset",        // (a) B.Reset's call does not cover it
		"idle: Idle.Nobody",       // (d) an interface method nothing calls
		"notsort: Sizes.Len",      // (c) a Len that is no sort.Interface's
		"testonly: OnlyFromTests", // (e) its one caller is a _test.go
		"testonly: spin",          // its one caller is itself
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls on the module's types: a method that satisfies one
// of them, on a type that implements all of it, counts as used.
const stdInterfaces = `package std

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer    fmt.Stringer
	err         error
	unwrapper   interface{ Unwrap() error }
	iser        interface{ Is(error) bool }
	sorter      sort.Interface
	heaper      heap.Interface
	marshaler   json.Marshaler
	unmarshaler json.Unmarshaler
	reader      io.Reader
	writer      io.Writer
	closer      io.Closer
	handler     http.Handler
	rwUnwrapper interface{ Unwrap() http.ResponseWriter } // http.ResponseController
)
`

// unreferenced type-checks every package of the module rooted at root and
// returns, sorted, the functions and methods that no non-test code uses, as
// "dir: Name" or "dir: Recv.Name". A method counts as used when something
// calls or references it, when an interface method it implements is used,
// or when it satisfies one of stdInterfaces; a use inside the declaration
// itself (recursion) does not count. Packages for which quiet reports true
// are type-checked and count as users, but their declarations are not
// reported.
func unreferenced(root string, quiet func(dir string) bool) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, errors.New("go.mod names no module")
	}

	// go/build picks each package's non-test files for this platform.
	type pkg struct {
		dir    string // relative to root
		syntax []*ast.File
		types  *types.Package
		info   *types.Info
	}
	pkgs := map[string]*pkg{} // by import path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
			return filepath.SkipDir // a nested module
		}
		bp, err := build.ImportDir(path, 0)
		if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		} else if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip += "/" + rel
		}
		p := &pkg{dir: rel}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(sourceFset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.syntax = append(p.syntax, f)
		}
		pkgs[ip] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	var order []*pkg // dependencies first
	var load func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip, srcDir string) (*types.Package, error) {
		if _, ok := pkgs[ip]; ok {
			return load(ip)
		}
		return stdSource.ImportFrom(ip, srcDir, 0)
	})
	load = func(ip string) (*types.Package, error) {
		p := pkgs[ip]
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(ip, sourceFset, p.syntax, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		order = append(order, p)
		return tp, nil
	}
	for ip := range pkgs {
		if _, err := load(ip); err != nil {
			return nil, err
		}
	}

	f, err := parser.ParseFile(sourceFset, "std.go", stdInterfaces, 0)
	if err != nil {
		return nil, err
	}
	stdPkg, err := (&types.Config{Importer: stdSource}).Check("std", sourceFset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}

	// What could be reported, with each declaration's extent so that a
	// function's uses of itself can be told apart.
	type decl struct {
		key        string
		start, end token.Pos
	}
	decls := map[*types.Func]decl{}
	var named []*types.Named // every package-level defined type
	for _, p := range order {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
		}
		if quiet(p.dir) {
			continue
		}
		for _, file := range p.syntax {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv == nil && (name == "init" || name == "main" || name == "_") {
						continue
					}
					if d.Recv != nil {
						name = recvName(d.Recv.List[0].Type) + "." + name
					}
					decls[p.info.Defs[d.Name].(*types.Func)] = decl{p.dir + ": " + name, d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								decls[p.info.Defs[id].(*types.Func)] = decl{p.dir + ": " + ts.Name.Name + "." + id.Name, id.Pos(), id.End()}
							}
						}
					}
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func // used interface methods still to propagate
	use := func(fn *types.Func) {
		if used[fn] {
			return
		}
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUses = append(ifaceUses, fn)
		}
	}
	for _, p := range order {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := decls[fn]; ok && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			use(fn)
		}
	}
	// The standard library calls these through its own interfaces.
	for _, name := range stdPkg.Scope().Names() {
		iface := stdPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface)
		for _, n := range named {
			if implementor(n, iface) {
				for i := 0; i < iface.NumMethods(); i++ {
					use(methodOf(n, iface.Method(i)))
				}
			}
		}
	}
	// A used interface method uses every method that implements it, on a
	// concrete type or on another interface.
	for len(ifaceUses) > 0 {
		m := ifaceUses[len(ifaceUses)-1]
		ifaceUses = ifaceUses[:len(ifaceUses)-1]
		iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if implementor(n, iface) {
				use(methodOf(n, m))
			}
		}
	}

	var out []string
	for fn, d := range decls {
		if !used[fn] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// sourceFset and stdSource are shared by every unreferenced call, so a test
// binary type-checks the standard library from source once.
var (
	sourceFset = token.NewFileSet()
	stdSource  = importer.ForCompiler(sourceFset, "source", nil).(types.ImporterFrom)
)

type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}

// implementor reports whether n or *n implements iface.
func implementor(n *types.Named, iface *types.Interface) bool {
	return types.Implements(n, iface) || (!types.IsInterface(n) && types.Implements(types.NewPointer(n), iface))
}

// methodOf returns n's method — its own or promoted from an embedded
// field — that implements the interface method m.
func methodOf(n *types.Named, m *types.Func) *types.Func {
	var t types.Type = n
	if !types.IsInterface(n) {
		t = types.NewPointer(n)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
	return obj.(*types.Func).Origin()
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
