package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallGraph is a module-wide static call graph over the loaded packages.
// Nodes are the module's declared functions and methods; edges are calls
// between them. Three edge flavours exist:
//
//   - static: a direct call to a package-level function or to a method
//     whose receiver type is concrete. These are sound for "what does this
//     function execute" reasoning.
//   - dynamic dispatch: a call through an interface method, resolved by
//     class-hierarchy analysis to every module type whose method set
//     implements the interface. Over-approximate by construction.
//   - reference: a declared function or method used as a value (passed,
//     assigned, returned). The enclosing function may cause it to run but
//     the call site is elsewhere; recorded as a dynamic edge.
//
// Function literals are attributed to their enclosing declared function:
// calls inside a closure appear as edges from the declaration that created
// it. That is the useful over-approximation for reachability analyses —
// the closure cannot run unless its creator (or someone the creator handed
// it to) runs it.
//
// Only module-internal callees get nodes; calls into the standard library
// are leaves that analyzers inspect at the call site.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
}

// CallNode is one declared function or method.
type CallNode struct {
	// Func is the canonical type-checker object.
	Func *types.Func
	// Decl is the declaration syntax (always non-nil: only functions with
	// bodies in the analyzed packages get nodes).
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package
	// Out and In are the outgoing and incoming edges.
	Out, In []*CallEdge
}

// CallEdge is one caller→callee relationship.
type CallEdge struct {
	Caller, Callee *CallNode
	// Dynamic marks interface-dispatch and reference edges; static calls
	// have it false.
	Dynamic bool
}

// Node returns the graph node for fn, or nil when fn is not a declared
// module function.
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Nodes returns every node sorted by declaration position (deterministic).
func (g *CallGraph) Nodes() []*CallNode {
	out := make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func.Pos() < out[j].Func.Pos() })
	return out
}

// Reachable walks the graph from roots following static edges — and
// dynamic ones when includeDynamic is set — returning, for every reached
// node, the edge it was first reached through (nil for the roots
// themselves). The edge chain reconstructs a call path back to a root.
func (g *CallGraph) Reachable(roots []*CallNode, includeDynamic bool) map[*CallNode]*CallEdge {
	seen := make(map[*CallNode]*CallEdge)
	queue := make([]*CallNode, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := seen[r]; !ok {
			seen[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Dynamic && !includeDynamic {
				continue
			}
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// StaticCallee resolves a call expression to the declared function or
// concrete method it invokes, or nil when the call is dynamic (interface
// dispatch, function value), a conversion, or a builtin. It is the
// resolution every interprocedural analyzer shares.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if isInterfaceMethod(fn) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Qualified package-level function (pkg.F).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if _, isPkg := info.Uses[identOf(fun.X)].(*types.PkgName); isPkg {
				return fn
			}
		}
	}
	return nil
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// BuildCallGraph constructs the module call graph over pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CallNode)}

	// Pass 1: one node per declared function with a body.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &CallNode{Func: fn, Decl: fd, Pkg: pkg}
			}
		}
	}

	// Index of concrete named module types, for CHA resolution of
	// interface calls.
	var concrete []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	// implementers resolves an interface-method call to the concrete
	// module methods that could satisfy it.
	// The method's package is part of the lookup key: an unexported name
	// matches only methods declared in the interface's own package.
	implementers := func(iface *types.Interface, method *types.Func) []*types.Func {
		var out []*types.Func
		for _, t := range concrete {
			impl := types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
			if !impl {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, method.Pkg(), method.Name())
			if m, ok := obj.(*types.Func); ok && g.nodes[m] != nil {
				out = append(out, m)
			}
		}
		return out
	}

	addEdge := func(caller *CallNode, callee *types.Func, dynamic bool) {
		cn := g.nodes[callee]
		if cn == nil {
			return
		}
		e := &CallEdge{Caller: caller, Callee: cn, Dynamic: dynamic}
		caller.Out = append(caller.Out, e)
		cn.In = append(cn.In, e)
	}

	// Pass 2: edges. Calls and references anywhere inside a declaration
	// (including nested function literals) are attributed to it.
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := g.nodes[info.Defs[fd.Name].(*types.Func)]

				// Collect the expressions occupying call position so that
				// uses elsewhere are recognized as function references.
				inCallPos := make(map[ast.Expr]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						inCallPos[ast.Unparen(call.Fun)] = true
					}
					return true
				})

				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch v := n.(type) {
					case *ast.CallExpr:
						if callee := StaticCallee(info, v); callee != nil {
							addEdge(caller, callee, false)
							return true
						}
						// Interface dispatch: CHA over module types.
						if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
							if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
								if fn, ok := selection.Obj().(*types.Func); ok && isInterfaceMethod(fn) {
									iface, _ := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
									if iface != nil {
										for _, impl := range implementers(iface, fn) {
											addEdge(caller, impl, true)
										}
									}
								}
							}
						}
					case *ast.Ident:
						// A declared function used as a value.
						if fn, ok := info.Uses[v].(*types.Func); ok && !inCallPos[ast.Expr(v)] {
							addEdge(caller, fn, true)
						}
					case *ast.SelectorExpr:
						// pkg.F or x.M used as a value (method value).
						if inCallPos[ast.Expr(v)] {
							return true
						}
						if selection, ok := info.Selections[v]; ok {
							if fn, ok := selection.Obj().(*types.Func); ok && !isInterfaceMethod(fn) {
								addEdge(caller, fn, true)
							}
							return true
						}
						if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
							if _, isPkg := info.Uses[identOf(v.X)].(*types.PkgName); isPkg {
								addEdge(caller, fn, true)
							}
						}
					}
					return true
				})
			}
		}
	}
	return g
}
