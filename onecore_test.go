package caar

import (
	"bufio"
	"go/build/constraint"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoRaceTestsRunOnOneCore: a test file built only without the race
// detector (`//go:build !race`, the allocation pins) runs only where a plain
// `go test` does, and the one plain run in CI is its "test (one core)" step,
// which `make test-1proc` mirrors. A package that holds such a file and is
// missing from either would have its pins never run.
func TestNoRaceTestsRunOnOneCore(t *testing.T) {
	var want []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		noRace, err := builtOnlyWithoutRace(path)
		if err != nil {
			return err
		}
		if pkg := "./" + filepath.ToSlash(filepath.Dir(path)); noRace && !slices.Contains(want, pkg) {
			want = append(want, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(want, "./internal/server") {
		t.Fatalf("found no !race test file in internal/server: the walk is broken (found %v)", want)
	}
	for _, src := range []struct{ file, marker string }{
		{"Makefile", "\ntest-1proc:"},
		{".github/workflows/ci.yml", "name: test (one core)"},
	} {
		got, err := oneCorePackages(src.file, src.marker)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range want {
			if !slices.Contains(got, strings.TrimSuffix(pkg, "/.")) {
				t.Errorf("%s: the one-core run (%v) leaves out %s, which holds !race tests", src.file, got, pkg)
			}
		}
	}
}

// builtOnlyWithoutRace reports whether a Go file's build constraint holds
// without the race tag and fails with it.
func builtOnlyWithoutRace(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false, err
		}
		with := func(race bool) bool { return expr.Eval(func(tag string) bool { return race && tag == "race" }) }
		return with(false) && !with(true), nil
	}
	return false, sc.Err()
}

// oneCorePackages returns the packages of the first GOMAXPROCS=1 command
// after marker in file.
func oneCorePackages(file, marker string) ([]string, error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	_, after, ok := strings.Cut(string(src), marker)
	for _, line := range strings.Split(after, "\n") {
		if !ok || !strings.Contains(line, "GOMAXPROCS=1") {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, ".") {
				pkgs = append(pkgs, f)
			}
		}
		return pkgs, nil
	}
	return nil, &fs.PathError{Op: "find one-core test command after " + marker, Path: file, Err: fs.ErrNotExist}
}
