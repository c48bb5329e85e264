package analysis_test

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"flex/internal/analysis"
)

// writeFiles lays out a module in a temp dir and chdirs into it.
func writeFiles(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	chdir(t, dir)
}

func loadAll(t *testing.T) (*analysis.Loader, []*analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// lookupFunc resolves a package-level function or a method ("T.M") in pkg.
func lookupFunc(t *testing.T, pkgs []*analysis.Package, pkgPath, name string) *types.Func {
	t.Helper()
	for _, pkg := range pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		scope := pkg.Types.Scope()
		if fn, ok := scope.Lookup(name).(*types.Func); ok {
			return fn
		}
		// "T.M" form: method M on named type T.
		for _, tn := range scope.Names() {
			named, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok {
				continue
			}
			nt, ok := named.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < nt.NumMethods(); i++ {
				m := nt.Method(i)
				if tn+"."+m.Name() == name {
					return m
				}
			}
		}
	}
	t.Fatalf("function %s not found in %s", name, pkgPath)
	return nil
}

// findEdge returns the first caller→callee edge, or nil.
func findEdge(g *analysis.CallGraph, caller, callee *types.Func) *analysis.CallEdge {
	cn := g.Node(caller)
	if cn == nil {
		return nil
	}
	for _, e := range cn.Out {
		if e.Callee.Func == callee {
			return e
		}
	}
	return nil
}

func TestCallGraphEdges(t *testing.T) {
	writeFiles(t, map[string]string{
		"go.mod": "module example.com/cg\n\ngo 1.22\n",
		"cg/cg.go": `package cg

type Ringer interface{ Ring() }

type Bell struct{ n int }

func (b *Bell) Ring() { helper() }

func helper() {}

func Direct() { helper() }

func Method(b *Bell) { b.Ring() }

func Dyn(r Ringer) { r.Ring() }

func Closure() {
	f := func() { helper() }
	f()
}

func Value() func() { return helper }

func MethodValue(b *Bell) func() { return b.Ring }
`,
	})
	_, pkgs := loadAll(t)
	g := analysis.BuildCallGraph(pkgs)

	const path = "example.com/cg/cg"
	helper := lookupFunc(t, pkgs, path, "helper")
	ring := lookupFunc(t, pkgs, path, "Bell.Ring")

	// Direct call: static edge.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "Direct"), helper); e == nil || e.Dynamic {
		t.Fatalf("Direct→helper = %+v, want static edge", e)
	}
	// Concrete method call: static.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "Method"), ring); e == nil || e.Dynamic {
		t.Fatalf("Method→Bell.Ring = %+v, want static edge", e)
	}
	// Interface dispatch: dynamic edge to the CHA-resolved implementation.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "Dyn"), ring); e == nil || !e.Dynamic {
		t.Fatalf("Dyn→Bell.Ring = %+v, want dynamic edge", e)
	}
	// A call inside a closure is attributed to the enclosing declaration.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "Closure"), helper); e == nil || e.Dynamic {
		t.Fatalf("Closure→helper = %+v, want static edge", e)
	}
	// A function used as a value: dynamic reference edge.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "Value"), helper); e == nil || !e.Dynamic {
		t.Fatalf("Value→helper = %+v, want dynamic reference edge", e)
	}
	// A method value reference.
	if e := findEdge(g, lookupFunc(t, pkgs, path, "MethodValue"), ring); e == nil || !e.Dynamic {
		t.Fatalf("MethodValue→Bell.Ring = %+v, want dynamic reference edge", e)
	}
}

func TestCallGraphReachable(t *testing.T) {
	writeFiles(t, map[string]string{
		"go.mod": "module example.com/cg\n\ngo 1.22\n",
		"cg/cg.go": `package cg

type Ringer interface{ Ring() }

type Bell struct{}

func (b *Bell) Ring() { helper() }

func helper() { leaf() }

func leaf() {}

func Dyn(r Ringer) { r.Ring() }
`,
	})
	_, pkgs := loadAll(t)
	g := analysis.BuildCallGraph(pkgs)

	const path = "example.com/cg/cg"
	dyn := g.Node(lookupFunc(t, pkgs, path, "Dyn"))
	leaf := g.Node(lookupFunc(t, pkgs, path, "leaf"))
	ring := g.Node(lookupFunc(t, pkgs, path, "Bell.Ring"))

	static := g.Reachable([]*analysis.CallNode{dyn}, false)
	if len(static) != 1 {
		t.Fatalf("static reach from Dyn = %d nodes, want 1 (itself)", len(static))
	}
	dynamic := g.Reachable([]*analysis.CallNode{dyn}, true)
	if _, ok := dynamic[leaf]; !ok {
		t.Fatalf("dynamic reach from Dyn misses leaf; got %d nodes", len(dynamic))
	}
	// The first-reach edge chain walks back to the root.
	e := dynamic[leaf]
	if e == nil || e.Caller != g.Node(lookupFunc(t, pkgs, path, "helper")) {
		t.Fatalf("leaf reached via %+v, want helper", e)
	}
	if via := dynamic[ring]; via == nil || via.Caller != dyn || !via.Dynamic {
		t.Fatalf("Bell.Ring reached via %+v, want dynamic edge from Dyn", via)
	}
}

// An interface with an unexported method can only be implemented inside
// its own package, and a call through it must still resolve to every
// implementer there.
func TestCallGraphUnexportedInterfaceMethod(t *testing.T) {
	writeFiles(t, map[string]string{
		"go.mod": "module example.com/cg\n\ngo 1.22\n",
		"cg/cg.go": `package cg

type workload interface{ rep() }

type fleet struct{}

func (fleet) rep() {}

type room struct{}

func (*room) rep() {}

func Run(w workload) { w.rep() }
`,
	})
	_, pkgs := loadAll(t)
	g := analysis.BuildCallGraph(pkgs)

	const path = "example.com/cg/cg"
	run := lookupFunc(t, pkgs, path, "Run")
	for _, impl := range []string{"fleet.rep", "room.rep"} {
		if e := findEdge(g, run, lookupFunc(t, pkgs, path, impl)); e == nil || !e.Dynamic {
			t.Errorf("Run→%s = %+v, want dynamic edge", impl, e)
		}
	}
}
