// Package unreached reports the functions and methods no binary reaches.
// Every mechanism in Flex must earn its place: code that only tests call
// is a design nobody runs, and it grows back unless a gate refuses it.
//
// The analyzer walks the module call graph, dynamic edges included, from
// these roots:
//
//   - every main and init function;
//   - every function referenced from a package-level var initialiser
//     (an analyzer's run, a workload table's entries);
//   - every method that satisfies a named interface, from the standard
//     library (String, Error, ServeHTTP, Len/Less/Swap, Write, …) or from
//     the module: the call that reaches it may sit where the graph cannot
//     see it;
//   - every declaration whose doc comment carries //flex:keep <reason>.
//
// Being exported earns nothing, in the root package flex (the facade) or
// anywhere else: an export stays when a program under cmd/ or examples/
// reaches it, or when it says why with //flex:keep.
//
// It reports every non-test function or method the roots do not reach,
// every struct field no non-test code reads (see unread for what counts
// as a read), every package-level const or var no non-test code names,
// and a //flex:keep without a reason. A keep on a field or a const/var
// spec keeps it; a keep on a type keeps all its fields.
package unreached

import (
	"go/ast"
	"go/types"
	"strings"

	"flex/internal/analysis"
)

// Analyzer is the unreached analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "unreached",
	Doc: "report functions no binary reaches, fields no code reads and values no code names\n\n" +
		"Roots are main, init, var initialisers, interface methods and\n" +
		"//flex:keep <reason> declarations; an export, the facade's\n" +
		"included, is no root of its own. Only non-test code reads a\n" +
		"field or names a const or var.",
	Finish: finish,
}

func finish(pass *analysis.ModulePass) error {
	g := pass.Graph
	var roots []*analysis.CallNode
	root := func(fn *types.Func) {
		if n := g.Node(fn); n != nil {
			roots = append(roots, n)
		}
	}

	for _, n := range g.Nodes() {
		fd := n.Decl
		if reason, ok := analysis.FlexDirective(fd.Doc, "keep"); ok {
			if reason == "" {
				pass.Reportf(fd.Name.Pos(), "flex:keep on %s requires a reason, e.g. //flex:keep tests in three packages compare against it", funcName(n))
			}
			roots = append(roots, n)
			continue
		}
		if name := fd.Name.Name; fd.Recv == nil && (name == "init" || name == "main" && n.Pkg.Types.Name() == "main") {
			roots = append(roots, n)
		}
	}
	for _, pkg := range pass.Pkgs {
		for _, fn := range varReferences(pkg) {
			root(fn)
		}
	}
	for _, fn := range interfaceMethods(pass.Pkgs) {
		root(fn)
	}

	reached := g.Reachable(roots, true)
	for _, n := range g.Nodes() {
		if _, ok := reached[n]; ok || isTestFile(pass, n) {
			continue
		}
		pass.Reportf(n.Decl.Name.Pos(), "%s is reached from no binary: delete it, or say why it stays with //flex:keep <reason>", funcName(n))
	}
	unread(pass)
	return nil
}

// varReferences returns the functions a package-level var initialiser
// of pkg calls or uses as a value, closures included.
func varReferences(pkg *analysis.Package) []*types.Func {
	var out []*types.Func
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						switch x := n.(type) {
						case *ast.Ident:
							if fn, ok := pkg.TypesInfo.Uses[x].(*types.Func); ok {
								out = append(out, fn)
							}
						case *ast.SelectorExpr:
							if sel, ok := pkg.TypesInfo.Selections[x]; ok {
								if fn, ok := sel.Obj().(*types.Func); ok {
									out = append(out, fn)
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	return out
}

// interfaceMethods returns the module methods that satisfy a named
// interface declared in a module package or in any package they import.
func interfaceMethods(pkgs []*analysis.Package) []*types.Func {
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}

	var out []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
						if fn, ok := obj.(*types.Func); ok {
							out = append(out, fn)
						}
					}
				}
			}
		}
	}
	return out
}

func isTestFile(pass *analysis.ModulePass, n *analysis.CallNode) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Decl.Pos()).Filename, "_test.go")
}

// recvName is the name of fd's receiver type, without pointer.
func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcName renders n as pkg.F or pkg.T.M.
func funcName(n *analysis.CallNode) string {
	if n.Decl.Recv == nil {
		return n.Pkg.Types.Name() + "." + n.Decl.Name.Name
	}
	return n.Pkg.Types.Name() + "." + recvName(n.Decl) + "." + n.Decl.Name.Name
}
