package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (e.g. "flex/internal/power").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed syntax trees, in file-name order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo holds full type information for Files.
	TypesInfo *types.Info
}

// Loader parses and type-checks packages from source with no external
// tooling: packages inside the module are loaded from their directories,
// and everything else (the standard library) is type-checked from GOROOT
// source via go/importer's "source" compiler, which works offline.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// IncludeTests makes the loader parse _test.go files too. flexlint
	// leaves it off — the analyzers' invariants deliberately do not apply
	// to tests — while analysistest turns it on for fixtures.
	IncludeTests bool

	moduleDir  string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	extraDirs  map[string]string
	loading    map[string]bool
}

// The source importer consults build.Default; cgo resolution would shell
// out to the cgo tool for packages like net, so disable it once globally.
var disableCgo sync.Once

// NewLoader creates a loader rooted at the Go module containing dir (the
// nearest parent with a go.mod). dir may be "" for a loader that only
// serves registered fixture directories and the standard library.
func NewLoader(dir string) (*Loader, error) {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	l := &Loader{
		Fset:      token.NewFileSet(),
		pkgs:      make(map[string]*Package),
		extraDirs: make(map[string]string),
		loading:   make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	if dir == "" {
		return l, nil
	}
	moduleDir, modulePath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l.moduleDir, l.modulePath = moduleDir, modulePath
	return l, nil
}

// ModulePath returns the module path from go.mod ("" for a fixture-only
// loader).
func (l *Loader) ModulePath() string { return l.modulePath }

// ModuleDir returns the directory holding go.mod ("" for a fixture-only
// loader).
func (l *Loader) ModuleDir() string { return l.moduleDir }

// RegisterDir maps an import path onto a source directory outside the
// module — analysistest uses it to serve testdata fixture packages.
func (l *Loader) RegisterDir(importPath, dir string) {
	l.extraDirs[importPath] = dir
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (moduleDir, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
	}
}

// LoadPatterns loads the packages matching the given patterns. A pattern
// is a directory relative to the current working directory ("./cmd/flexsim"),
// optionally with a "/..." suffix meaning the whole subtree ("./...").
// Results are sorted by import path.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if l.moduleDir == "" {
		return nil, fmt.Errorf("analysis: loader has no module root; use LoadImport for fixtures")
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "" || root == "."+string(filepath.Separator) {
			root = "."
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		if !recursive {
			dirs[abs] = true
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, dir := range sortedKeys(dirs) {
		importPath, err := l.dirImportPath(dir)
		if err != nil {
			return nil, err
		}
		if ok, err := hasGoFiles(dir, l.IncludeTests); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		pkg, err := l.LoadImport(importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) dirImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.moduleDir)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string, includeTests bool) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		return true, nil
	}
	return false, nil
}

// LoadImport loads (or returns the cached) package for an import path.
// Module-internal and registered fixture paths are parsed and type-checked
// from source; everything else resolves through the standard library
// importer.
func (l *Loader) LoadImport(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, err := l.sourceDir(path)
	if err != nil {
		return nil, err
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, TypesInfo: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// sourceDir maps an import path to the directory it loads from, or errors
// when the path is not module-internal or registered (those fall through
// to the stdlib importer in loaderImporter, not here).
func (l *Loader) sourceDir(path string) (string, error) {
	if dir, ok := l.extraDirs[path]; ok {
		return dir, nil
	}
	if l.modulePath != "" && path == l.modulePath {
		return l.moduleDir, nil
	}
	if l.modulePath != "" {
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), nil
		}
	}
	return "", fmt.Errorf("analysis: %s is not a module-internal or registered package", path)
}

func (l *Loader) isLocal(path string) bool {
	_, err := l.sourceDir(path)
	return err == nil
}

// parseDir parses the package's Go files in file-name order: those the
// build context selects for this GOOS/GOARCH, as the go command would.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts Loader to types.Importer: local packages load from
// source, the rest from the shared stdlib source importer.
type loaderImporter Loader

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(im)
	if l.isLocal(path) {
		pkg, err := l.LoadImport(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
