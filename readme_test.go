package caar

import (
	"go/build"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPublicPackagesMatchREADME holds README's "Public packages beyond the
// root facade" list to the tree: one bullet for each top-level directory
// that holds an importable, non-main package, and no other.
func TestPublicPackagesMatchREADME(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var tree []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.HasPrefix(name, ".") || name == "testdata" || name == "internal" {
			continue
		}
		if _, err := os.Stat(filepath.Join(name, "go.mod")); err == nil {
			continue // a nested module
		}
		if bp, err := build.ImportDir(name, 0); err == nil && bp.Name != "main" {
			tree = append(tree, name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	bullet := regexp.MustCompile("^- `([a-z]+)` — ")
	var listed []string
	in := false
	for _, line := range strings.Split(string(readme), "\n") {
		switch {
		case strings.HasPrefix(line, "Public packages beyond the root facade"):
			in = true
		case in && bullet.MatchString(line):
			listed = append(listed, bullet.FindStringSubmatch(line)[1])
		case in && line != "" && !strings.HasPrefix(line, " "):
			in = false
		}
	}
	sort.Strings(tree)
	sort.Strings(listed)
	if !reflect.DeepEqual(tree, listed) {
		t.Errorf("README lists public packages %q, the tree holds %q", listed, tree)
	}
}
