package lint

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// A pkg is one type-checked package: its non-test files for this platform,
// parsed with comments.
type pkg struct {
	dir    string // relative to the module root, slash-separated
	syntax []*ast.File
	types  *types.Package
	info   *types.Info
}

// A module is every package of the module rooted at root, dependencies
// first.
type module struct {
	root string
	pkgs []*pkg
}

// loadModule loads the module this package belongs to, once per test
// binary: the reachability guard and the analyzers share it.
var loadModule = sync.OnceValues(func() (*module, error) { return load("../..") })

// load type-checks every package of the module rooted at root, skipping
// what the go command's ./... skips: directories named testdata or vendor,
// or starting with "." or "_". go/build picks each package's non-test
// files, so test files are neither checked nor count as users.
func load(root string) (*module, error) {
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
			f, err := parser.ParseFile(sourceFset, filepath.Join(path, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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

	m := &module{root: root}
	var typeCheck func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip, srcDir string) (*types.Package, error) {
		if _, ok := pkgs[ip]; ok {
			return typeCheck(ip)
		}
		return stdSource.ImportFrom(ip, srcDir, 0)
	})
	typeCheck = func(ip string) (*types.Package, error) {
		p := pkgs[ip]
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(ip, sourceFset, p.syntax, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		m.pkgs = append(m.pkgs, p)
		return tp, nil
	}
	for _, ip := range slices.Sorted(maps.Keys(pkgs)) {
		if _, err := typeCheck(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// sourceFset and stdSource are shared by every load, so a test binary
// type-checks the standard library from source once.
var (
	sourceFset = token.NewFileSet()
	stdSource  = importer.ForCompiler(sourceFset, "source", nil).(types.ImporterFrom)
)

type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, srcDir)
}
