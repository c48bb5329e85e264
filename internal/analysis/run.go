package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Finding pairs a diagnostic with the package it was found in.
type Finding struct {
	Pkg *Package
	Diagnostic
}

// Position resolves the finding's location.
func (f Finding) Position(fset *token.FileSet) token.Position {
	return fset.Position(f.Pos)
}

// Scope decides whether an analyzer applies to a package; a nil Scope
// applies every analyzer everywhere. flexlint uses it to confine floateq
// to the numeric packages. Scope gates per-package Run passes only —
// Finish passes are whole-program by nature and always run.
type Scope func(a *Analyzer, pkgPath string) bool

// Run applies every analyzer to every package and returns the findings
// sorted by file, line, column, and analyzer name.
//
// The driver is interprocedural: packages are visited in dependency
// order (imports before importers) so that facts an analyzer exports on
// a package's objects exist by the time its importers are analyzed; a
// module-wide call graph is built once and shared by every pass; and
// analyzers with a Finish hook get a final whole-program pass over the
// graph and the accumulated facts.
//
// //flexlint:ignore directives are honoured here, so every consumer of
// the framework (flexlint, analysistest) gets identical suppression
// semantics. Malformed directives become findings themselves.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, scope Scope) ([]Finding, error) {
	pkgs = dependencyOrder(pkgs)
	graph := BuildCallGraph(pkgs)
	facts := newFactStore()

	// Map file names back to packages so module-level findings can be
	// attributed.
	fileToPkg := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			fileToPkg[fset.Position(file.Pos()).Filename] = pkg
		}
	}

	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if scope != nil && !scope(a, pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
			}
			p, an := pkg, a
			pass.Report = func(d Diagnostic) {
				if d.Category == "" {
					d.Category = an.Name
				}
				findings = append(findings, Finding{Pkg: p, Diagnostic: d})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     pkgs,
			Graph:    graph,
			facts:    facts,
		}
		an := a
		mp.Report = func(d Diagnostic) {
			if d.Category == "" {
				d.Category = an.Name
			}
			pkg := fileToPkg[fset.Position(d.Pos).Filename]
			findings = append(findings, Finding{Pkg: pkg, Diagnostic: d})
		}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("analysis: %s finish: %w", a.Name, err)
		}
	}

	ignores, malformed := collectIgnores(fset, pkgs)
	kept := findings[:0]
	for _, f := range findings {
		if suppressed(fset, ignores, f.Pos, f.Category) {
			continue
		}
		kept = append(kept, f)
	}
	findings = append(kept, malformed...)

	sort.Slice(findings, func(i, j int) bool {
		pi, pj := fset.Position(findings[i].Pos), fset.Position(findings[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Category < findings[j].Category
	})
	return findings, nil
}

// dependencyOrder sorts pkgs so every package follows the packages it
// imports (restricted to pkgs themselves). Ties break on import path, so
// the order is deterministic.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	indegree := make(map[*Package]int, len(pkgs))
	importers := make(map[*Package][]*Package, len(pkgs))
	for _, p := range pkgs {
		indegree[p] += 0
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok && dep != p {
				importers[dep] = append(importers[dep], p)
				indegree[p]++
			}
		}
	}
	ready := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		if indegree[p] == 0 {
			ready = append(ready, p)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].Path < ready[j].Path })
	var order []*Package
	for len(ready) > 0 {
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		var next []*Package
		for _, imp := range importers[p] {
			indegree[imp]--
			if indegree[imp] == 0 {
				next = append(next, imp)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].Path < next[j].Path })
		ready = append(ready, next...)
	}
	// Import cycles cannot type-check, so every package is emitted; the
	// guard keeps the function total regardless.
	if len(order) != len(pkgs) {
		seen := make(map[*Package]bool, len(order))
		for _, p := range order {
			seen[p] = true
		}
		for _, p := range pkgs {
			if !seen[p] {
				order = append(order, p)
			}
		}
	}
	return order
}

// Format renders one finding as "path:line:col: message [analyzer]", with
// the path made relative to baseDir when possible.
func Format(fset *token.FileSet, baseDir string, f Finding) string {
	pos := fset.Position(f.Pos)
	name := pos.Filename
	if baseDir != "" {
		if rel, err := filepath.Rel(baseDir, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s [%s]", name, pos.Line, pos.Column, f.Message, f.Category)
}
