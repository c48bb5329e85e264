// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations written in the fixtures themselves,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives under <testdata>/src/<importpath>/ and marks each line
// where a diagnostic is expected with a trailing comment:
//
//	now := time.Now() // want `use the injected clock`
//
// The backquoted (or double-quoted) argument is a regular expression that
// must match the diagnostic's message. Several expectations may share one
// line: // want `first` `second`. Lines without a want comment must
// produce no diagnostics.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flex/internal/analysis"
)

// TestingT is the subset of *testing.T the harness uses.
type TestingT interface {
	Helper()
	Errorf(format string, args ...interface{})
	Fatalf(format string, args ...interface{})
}

var _ TestingT = (*testing.T)(nil)

// TestData returns the analyzer package's testdata directory.
//
//flex:keep every analyzer's fixture test loads its testdata through it
func TestData(t TestingT) string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	return dir
}

// expectation is one want entry.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture packages from testdata/src/<path> — together
// with every fixture package they transitively import — applies the
// analyzer to all of them in one interprocedural run (shared call graph
// and fact store, dependency order), and reports mismatches between
// produced and expected diagnostics on t. Want comments are honored in
// imported fixture packages too, so a multi-package fixture can assert
// diagnostics on both sides of a fact export/import boundary.
//
//flex:keep every analyzer's fixture test runs through it
func Run(t TestingT, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader, err := analysis.NewLoader("")
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loader.IncludeTests = true
	src := filepath.Join(testdata, "src")
	// Register every fixture directory so fixtures may import each other.
	registered := make(map[string]bool)
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				rel, err := filepath.Rel(src, path)
				if err != nil {
					return err
				}
				importPath := filepath.ToSlash(rel)
				loader.RegisterDir(importPath, path)
				registered[importPath] = true
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("analysistest: scanning %s: %v", src, err)
	}

	var pkgs []*analysis.Package
	seen := make(map[string]bool)
	var add func(path string)
	add = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		pkg, err := loader.LoadImport(path)
		if err != nil {
			t.Fatalf("analysistest: loading %s: %v", path, err)
		}
		for _, imp := range pkg.Types.Imports() {
			if registered[imp.Path()] {
				add(imp.Path())
			}
		}
		pkgs = append(pkgs, pkg)
	}
	for _, path := range paths {
		add(path)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		w, err := collectWants(loader.Fset, pkg)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		wants = append(wants, w...)
	}
	findings, err := analysis.Run(loader.Fset, pkgs, []*analysis.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("analysistest: running %s: %v", a.Name, err)
	}
	for _, f := range findings {
		pos := f.Position(loader.Fset)
		if w := match(wants, pos, f.Message); w == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// match finds the first unmatched expectation on the diagnostic's line
// whose pattern matches, and marks it used.
func match(wants []*expectation, pos token.Position, msg string) *expectation {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.pattern.MatchString(msg) {
			w.matched = true
			return w
		}
	}
	return nil
}

// wantRE pulls the quoted patterns out of a want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants parses every "// want ..." comment in the package.
func collectWants(fset *token.FileSet, pkg *analysis.Package) ([]*expectation, error) {
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range matches {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants, nil
}
