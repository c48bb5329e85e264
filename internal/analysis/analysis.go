// Package analysis is a self-contained, stdlib-only reimplementation of
// the golang.org/x/tools/go/analysis surface that flexlint's analyzers
// need. The repository deliberately has zero external dependencies, so the
// framework — Analyzer, Pass, Diagnostic, a module-aware source loader,
// and a diagnostic runner — lives here instead of importing x/tools.
//
// The API mirrors x/tools closely enough that an analyzer written against
// this package ports to the upstream framework (and back) mechanically:
// an Analyzer has a Name, a Doc string, and a Run function that receives a
// Pass holding the parsed files and full type information for one package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the flexlint
	// command line. By convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are delivered
	// through pass.Report / pass.Reportf; the returned value is unused by
	// flexlint but kept for x/tools API parity. The driver visits packages
	// in dependency order, so facts exported by an imported package are
	// visible when its importers run. Run may be nil for a whole-program
	// analyzer that only implements Finish.
	Run func(*Pass) (interface{}, error)
	// Finish, when non-nil, runs once after every package's Run pass has
	// completed. It sees the module-wide call graph and every exported
	// fact, so it is where whole-program properties (reachability from
	// hot-path roots, lock-order cycles) are checked.
	Finish func(*ModulePass) error
}

// Pass is the interface between one analyzer and one package being
// analyzed. The driver constructs a fresh Pass per (analyzer, package).
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver sets it.
	Report func(Diagnostic)

	facts *factStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Category: p.Analyzer.Name})
}

// ExportObjectFact attaches a fact to obj for consumption by this
// analyzer's later passes — in importing packages' Run passes or in
// Finish. The fact type must be a pointer owned by this analyzer.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		panic("analysis: pass has no fact store (constructed outside Run)")
	}
	p.facts.export(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of fact's type previously exported on
// obj into *fact, reporting whether one exists. Because the whole module
// shares one type-checker, obj is the identical object the exporter saw,
// whichever package it was declared in.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.imp(p.Analyzer, obj, fact)
}

// ModulePass is the whole-program counterpart of Pass, handed to
// Analyzer.Finish after every package has been visited.
type ModulePass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file/line/column.
	Fset *token.FileSet
	// Pkgs are every package in the run, in dependency order.
	Pkgs []*Package
	// Graph is the module-wide call graph.
	Graph *CallGraph
	// Report delivers one diagnostic. The driver sets it and attributes
	// the finding to the package owning the diagnostic's file.
	Report func(Diagnostic)

	facts *factStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Category: p.Analyzer.Name})
}

// AllObjectFacts returns every fact of example's type this analyzer
// exported, in deterministic order.
func (p *ModulePass) AllObjectFacts(example Fact) []ObjectFact {
	return p.facts.all(p.Analyzer, example)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message describes the problem and, where possible, the fix.
	Message string
	// Category is the reporting analyzer's name.
	Category string
}

// PkgFunc resolves a called expression to the fully qualified name of a
// package-level function, e.g. "time.Now" — or "" when the call is not a
// direct package-level call. It is the helper clockcheck and locksend use
// to match calls like time.Sleep regardless of import aliasing.
func PkgFunc(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path() + "." + sel.Sel.Name
}

// MethodRecv resolves a called expression to the method's receiver type
// string and method name, e.g. ("*sync.Mutex", "Lock"). The receiver
// string uses types.Type.String() of the method's declared receiver, so
// promoted methods of embedded fields resolve to the embedded type. ok is
// false when the call is not a method call.
func MethodRecv(info *types.Info, call *ast.CallExpr) (recv string, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isSelection := info.Selections[sel]
	if !isSelection || (selection.Kind() != types.MethodVal && selection.Kind() != types.MethodExpr) {
		return "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return sig.Recv().Type().String(), fn.Name(), true
}
