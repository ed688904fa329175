// Package lint holds the module's static checks, all of them tests. One
// loader type-checks the module's non-test files once per test binary; the
// reachability guard and the analyzers below run over what it loaded. Each
// analyzer turns an invariant DESIGN.md §7.1 documents into a failing test.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// An analyzer checks one invariant over one package, reporting through
// pass.Reportf.
type analyzer struct {
	name string
	run  func(*pass)
}

var analyzers = []analyzer{
	{"cowmut", cowmut},
	{"readpathlock", readpathlock},
	{"metricname", metricname},
	{"fsyncrename", fsyncrename},
	{"errstatus", errstatus},
	{"lockorder", lockorder},
	{"goroutinelife", goroutinelife},
	{"atomicfield", atomicfield},
	{"batchalias", batchalias},
	{"maporder", maporder},
	{"hotpathmap", hotpathmap},
	{"httptest", httptestImport},
}

// tolerated names the real tree's accepted findings by file and analyzer,
// with the reason. An entry that matches nothing is logged, not failed, so
// the change that fixes its findings need not edit this table.
var tolerated = map[[2]string]string{
	{"bench/trace.go", "readpathlock"}: "the benchmark's span decorators; bench/ changes only with the benchmark (ROADMAP item 1 (f))",
}

// TestModuleInvariants runs every analyzer over every package of the module
// and fails on any finding not tolerated. It logs the count per analyzer.
func TestModuleInvariants(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	matched := map[[2]string]bool{}
	for _, p := range m.pkgs {
		for _, d := range check(p, analyzers) {
			counts[d.analyzer]++
			file, _ := filepath.Rel(m.root, d.pos.Filename)
			d.pos.Filename = filepath.ToSlash(file)
			key := [2]string{d.pos.Filename, d.analyzer}
			if _, ok := tolerated[key]; ok {
				matched[key] = true
				t.Logf("tolerated: %s", d)
				continue
			}
			t.Error(d)
		}
	}
	for key, reason := range tolerated {
		if !matched[key] {
			t.Logf("stale tolerance: no %s finding in %s (%s)", key[1], key[0], reason)
		}
	}
	for _, a := range analyzers {
		t.Logf("%-14s %d", a.name, counts[a.name])
	}
}

// wantRE matches one quoted or back-quoted regexp of a `// want` comment.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// TestAnalyzerFixtures runs each analyzer over its package in
// testdata/analyzers and requires exactly the findings the package's
// `// want "rx"...` comments assert: each regexp matches one finding,
// "analyzer: message", on the comment's line, and every finding is matched.
func TestAnalyzerFixtures(t *testing.T) {
	m, err := load("testdata/analyzers")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyzers {
		t.Run(a.name, func(t *testing.T) {
			i := slices.IndexFunc(m.pkgs, func(p *pkg) bool { return p.dir == a.name })
			if i < 0 {
				t.Fatalf("no fixture package %s", a.name)
			}
			p := m.pkgs[i]
			wants := map[string][]*regexp.Regexp{} // by file:line
			for _, f := range p.syntax {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						_, rest, ok := strings.Cut(c.Text, "// want ")
						if !ok {
							continue
						}
						at := sourceFset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", at.Filename, at.Line)
						for _, q := range wantRE.FindAllString(rest, -1) {
							pat, err := strconv.Unquote(q)
							if err != nil {
								t.Fatalf("%s: %s: %v", key, q, err)
							}
							rx, err := regexp.Compile(pat)
							if err != nil {
								t.Fatalf("%s: %v", key, err)
							}
							wants[key] = append(wants[key], rx)
						}
					}
				}
			}
			for _, d := range check(p, []analyzer{a}) {
				key := fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line)
				i := slices.IndexFunc(wants[key], func(rx *regexp.Regexp) bool { return rx.MatchString(d.analyzer + ": " + d.msg) })
				if i < 0 {
					t.Errorf("unexpected finding %s", d)
					continue
				}
				wants[key] = slices.Delete(wants[key], i, i+1)
			}
			for key, rxs := range wants {
				for _, rx := range rxs {
					t.Errorf("%s: no finding matches %q", key, rx)
				}
			}
		})
	}
}

// A pass is one analyzer's run over one package.
type pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	dir       string // the package's directory, relative to the module root

	analyzer string
	allows   []*allow
	diags    *[]diagnostic
}

type diagnostic struct {
	pos      token.Position
	analyzer string
	msg      string
}

func (d diagnostic) String() string { return fmt.Sprintf("%s: %s: %s", d.pos, d.analyzer, d.msg) }

// Reportf records a finding at pos unless an allow directive for the
// running analyzer covers pos's line.
func (p *pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	for _, a := range p.allows {
		if a.analyzer == p.analyzer && a.pos.Filename == at.Filename && (a.pos.Line == at.Line || a.pos.Line+1 == at.Line) {
			a.used = true
			return
		}
	}
	*p.diags = append(*p.diags, diagnostic{at, p.analyzer, fmt.Sprintf(format, args...)})
}

// funcs returns the package's function declarations that have a body.
func (p *pass) funcs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// inspect calls visit for every node of the package's files, in preorder.
func (p *pass) inspect(visit func(ast.Node)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				visit(n)
			}
			return true
		})
	}
}

// An allow is one suppression directive, in the style of staticcheck's
// //lint:ignore:
//
//	//caarlint:allow <analyzer> <reason>
//
// at the end of the offending line or on its own line just above it. The
// analyzer name must match exactly and the reason is mandatory, so every
// exception in the tree documents why the invariant does not apply.
type allow struct {
	analyzer, reason string
	pos              token.Position
	used             bool
}

// check runs the analyzers over p and returns their findings sorted by
// position, including the directive rules': an allow directive without a
// reason, or one that suppressed nothing, is itself a finding, so
// exceptions cannot rot silently.
func check(p *pkg, as []analyzer) []diagnostic {
	var allows []*allow
	for _, f := range p.syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//caarlint:allow")
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				// A fixture's want assertion is not part of the reason.
				reason, _, _ = strings.Cut(reason, "//")
				allows = append(allows, &allow{analyzer: name, reason: strings.TrimSpace(reason), pos: sourceFset.Position(c.Pos())})
			}
		}
	}
	var diags []diagnostic
	for _, a := range as {
		a.run(&pass{Fset: sourceFset, Files: p.syntax, Pkg: p.types, TypesInfo: p.info, dir: p.dir, analyzer: a.name, allows: allows, diags: &diags})
	}
	for _, a := range allows {
		switch {
		case a.reason == "":
			diags = append(diags, diagnostic{a.pos, a.analyzer, "caarlint:allow without a reason; document why the invariant does not apply"})
		case !a.used:
			diags = append(diags, diagnostic{a.pos, a.analyzer, "stale caarlint:allow directive: no finding on the next line"})
		}
	}
	slices.SortFunc(diags, func(a, b diagnostic) int {
		if c := strings.Compare(a.pos.Filename, b.pos.Filename); c != 0 {
			return c
		}
		return a.pos.Offset - b.pos.Offset
	})
	return diags
}

// callee returns the function or method call invokes, or nil for a call of
// a builtin, a func-typed value or a conversion.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) { // an explicit instantiation, f[T](...)
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // a qualified identifier
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// named returns the name of t's named type, through a pointer, or nil.
func named(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isMethodOf reports whether fn is a method of one of the named types of
// the package with the given path.
func isMethodOf(fn *types.Func, path string, names ...string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	tn := named(recv.Type())
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == path && slices.Contains(names, tn.Name())
}

// inBench reports whether dir is in the benchmark's tree, which changes only
// with the benchmark.
func inBench(dir string) bool { return dir == "bench" || strings.HasPrefix(dir, "bench/") }

// httptestImport keeps test harnesses in _test.go files: only bench/ may
// stand up an httptest server from non-test code.
func httptestImport(pass *pass) {
	if inBench(pass.dir) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"net/http/httptest"` {
				pass.Reportf(imp.Pos(), "non-test file outside bench/ imports net/http/httptest; test harnesses belong in _test.go files")
			}
		}
	}
}
