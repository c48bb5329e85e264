// Package allocfree proves that declared hot paths stay allocation-free.
// Flex's detect→plan→shed loop must fit inside the ~10-second battery
// window; a garbage-collection pause triggered by per-sample allocation
// on the telemetry or metrics path eats straight into it. The repo pins
// those paths with AllocsPerRun tests — this analyzer turns that runtime
// spot check into a static, whole-program proof.
//
// A function whose doc comment carries //flex:hotpath is a root. The
// analyzer walks every function statically reachable from a root (module
// call graph, static edges only) and reports any construct that
// allocates or cannot be proven not to:
//
//   - append, make, new
//   - slice and map composite literals, &T{...} literals
//   - function literals (closure allocation) and go statements
//   - non-constant string concatenation and string↔[]byte/[]rune
//     conversions
//   - interface boxing: a concrete non-pointer-shaped value passed where
//     an interface is expected
//   - calls with non-empty variadic argument lists (the ...T slice)
//   - calls into standard-library packages not on the allocation-free
//     allowlist (sync, sync/atomic, math, math/bits, time)
//   - dynamic calls (interface dispatch, function values), which the
//     static proof cannot follow
//
// //flex:coldpath on a callee stops the traversal: it marks an audited
// slow path (the flight recorder's optional JSON sink) that a hot
// function only reaches behind a condition the hot configuration never
// takes. A module function declared without a Go body (an assembly
// kernel) has nothing to walk: //flex:hotpath on its declaration records
// that it was audited allocation-free, and without it a call is reported
// like any unknown callee. Plain struct composite literals are allowed — they live on the
// stack when they do not escape, which the boxing and call rules already
// police.
package allocfree

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"flex/internal/analysis"
)

// Analyzer is the allocfree analyzer. It is whole-program only: all the
// work happens in Finish, over the module call graph.
var Analyzer = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "prove //flex:hotpath functions allocation-free\n\n" +
		"Walks the static call graph from every //flex:hotpath root and\n" +
		"reports allocating constructs; //flex:coldpath stops traversal at\n" +
		"audited slow paths.",
	Finish: finish,
}

// allowedPkgs are standard-library packages whose entry points used on
// the hot paths do not allocate.
var allowedPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"time":        true,
}

func finish(mp *analysis.ModulePass) error {
	var roots []*analysis.CallNode
	for _, n := range mp.Graph.Nodes() {
		if analysis.HasFlexDirective(n.Decl.Doc, "hotpath") {
			roots = append(roots, n)
		}
	}
	// BFS over static edges, stopping at //flex:coldpath callees. firstEdge
	// remembers how each node was reached so diagnostics can name the root.
	firstEdge := make(map[*analysis.CallNode]*analysis.CallEdge)
	queue := make([]*analysis.CallNode, 0, len(roots))
	for _, r := range roots {
		firstEdge[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if e.Dynamic {
				continue
			}
			if _, ok := firstEdge[e.Callee]; ok {
				continue
			}
			if analysis.HasFlexDirective(e.Callee.Decl.Doc, "coldpath") {
				continue
			}
			firstEdge[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	audited := auditedBodiless(mp)
	for _, n := range mp.Graph.Nodes() {
		if _, ok := firstEdge[n]; !ok {
			continue
		}
		root := n
		for firstEdge[root] != nil {
			root = firstEdge[root].Caller
		}
		check(mp, n, root, audited)
	}
	return nil
}

// auditedBodiless is the set of module functions declared without a body
// but with //flex:hotpath.
func auditedBodiless(mp *analysis.ModulePass) map[*types.Func]bool {
	audited := make(map[*types.Func]bool)
	for _, pkg := range mp.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body == nil && analysis.HasFlexDirective(fd.Doc, "hotpath") {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						audited[fn] = true
					}
				}
			}
		}
	}
	return audited
}

// check reports every allocating construct in node's body.
func check(mp *analysis.ModulePass, node, root *analysis.CallNode, audited map[*types.Func]bool) {
	info := node.Pkg.TypesInfo
	where := node.Func.Name()
	if root != node {
		where += " (reachable from //flex:hotpath " + root.Func.Name() + ")"
	} else {
		where += " (//flex:hotpath)"
	}
	report := func(pos token.Pos, what string) {
		mp.Reportf(pos, "hot path allocates: %s in %s", what, where)
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			checkCall(mp, info, v, audited, report)
		case *ast.CompositeLit:
			switch info.TypeOf(v).Underlying().(type) {
			case *types.Slice:
				report(v.Pos(), "slice literal")
			case *types.Map:
				report(v.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					report(v.Pos(), "address of composite literal")
				}
			}
		case *ast.FuncLit:
			report(v.Pos(), "function literal (closure)")
			return false
		case *ast.GoStmt:
			report(v.Pos(), "go statement (new goroutine)")
		case *ast.BinaryExpr:
			if v.Op == token.ADD {
				if t, ok := info.TypeOf(v).Underlying().(*types.Basic); ok && t.Info()&types.IsString != 0 {
					if tv := info.Types[ast.Expr(v)]; tv.Value == nil {
						report(v.Pos(), "non-constant string concatenation")
					}
				}
			}
		}
		return true
	})
}

// checkCall classifies one call expression on a hot body.
func checkCall(mp *analysis.ModulePass, info *types.Info, call *ast.CallExpr, audited map[*types.Func]bool, report func(token.Pos, string)) {
	// Conversion, not a call.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && stringBytesConversion(info, tv.Type, call.Args[0]) {
			report(call.Pos(), "string conversion copies its data")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "append":
				report(call.Pos(), "append may grow its backing array")
			case "make":
				report(call.Pos(), "make")
			case "new":
				report(call.Pos(), "new")
			}
			return
		}
	}
	callee := analysis.StaticCallee(info, call)
	if callee == nil {
		report(call.Pos(), "dynamic call, not provably allocation-free")
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if ok {
		checkArgs(info, call, sig, report)
	}
	if pkg := callee.Pkg(); pkg != nil {
		if node := mp.Graph.Node(callee); node != nil || audited[callee] {
			return // module function: the traversal checks its body (or coldpath stops it)
		}
		if !allowedPkgs[pkg.Path()] {
			report(call.Pos(), "call to "+pkg.Path()+"."+callee.Name()+", which may allocate")
		}
	}
}

// checkArgs reports interface boxing and variadic slice construction at a
// statically resolved call.
func checkArgs(info *types.Info, call *ast.CallExpr, sig *types.Signature, report func(token.Pos, string)) {
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call builds a slice")
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos && params.Len() > 0:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case sig.Variadic() && params.Len() > 0:
			pt = params.At(params.Len() - 1).Type() // f(xs...): param is the slice itself
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.Unknown {
			continue
		}
		if isUntypedNil(info, arg) || pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "interface boxing of "+at.String())
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// stringBytesConversion reports whether converting arg to target copies
// string/byte data ([]byte(s), string(b), []rune(s), string(r)).
func stringBytesConversion(info *types.Info, target types.Type, arg ast.Expr) bool {
	at := info.TypeOf(arg)
	if at == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(target) && isByteOrRuneSlice(at)) || (isByteOrRuneSlice(target) && isStr(at))
}
