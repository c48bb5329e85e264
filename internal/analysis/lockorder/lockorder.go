// Package lockorder builds a cross-package mutex acquisition-order graph
// and reports cycles as potential deadlocks. Each mutex is identified by
// its class — the declaring package, type, and field
// ("flex/internal/placement/online.Admitter.mu") or package-level variable —
// so every instance of a type's lock shares one node. An edge A→B is
// recorded whenever B is acquired while A is held: directly in one
// function body, or by calling (through any chain of static calls, in
// any package) a function that acquires B. Two components that nest the
// same pair of lock classes in opposite orders deadlock the first time
// their goroutines interleave; a cycle in the class graph is exactly
// that situation.
//
// Per function, the analyzer exports two facts: the set of lock classes
// the function may (transitively) acquire, and the acquisition-order
// edges its body creates. The whole-program pass merges every edge and
// reports each strongly connected component of two or more classes.
//
// RLock and Lock on the same mutex share a class: an RLock held while
// the write side is wanted participates in the same deadlocks.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flex/internal/analysis"
	"flex/internal/analysis/lockflow"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "report mutex acquisition-order cycles across packages\n\n" +
		"Builds the module-wide lock-class graph (B acquired while A held,\n" +
		"directly or through calls) and flags cycles as potential deadlocks.",
	Run:    run,
	Finish: finish,
}

// Edge is one acquisition-order observation: To was acquired (directly
// or via a call) while From was held, at Pos.
type Edge struct {
	From, To string
	Pos      token.Pos
}

// locksFact is the set of lock classes a function may acquire,
// transitively through static calls.
type locksFact struct {
	Classes []string // sorted
}

func (*locksFact) AFact() {}

// edgesFact is the acquisition-order edges a function's body creates.
type edgesFact struct {
	Edges []Edge
}

func (*edgesFact) AFact() {}

func run(pass *analysis.Pass) (interface{}, error) {
	type callSite struct {
		callee *types.Func
		held   []string // lock classes held at the call
		pos    token.Pos
	}
	type fnInfo struct {
		obj      *types.Func
		acquired []string
		edges    []Edge
		calls    []callSite
	}
	var fns []*fnInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{obj: obj}
			lockflow.WalkFunc(pass.TypesInfo, fd, lockflow.Hooks{
				OnAcquire: func(lock lockflow.Lock, held []lockflow.Lock) {
					if lock.Class == "" {
						return
					}
					fi.acquired = append(fi.acquired, lock.Class)
					for _, h := range held {
						if h.Class != "" && h.Class != lock.Class {
							fi.edges = append(fi.edges, Edge{From: h.Class, To: lock.Class, Pos: lock.Pos})
						}
					}
				},
				OnCall: func(call *ast.CallExpr, held []lockflow.Lock) {
					callee := analysis.StaticCallee(pass.TypesInfo, call)
					if callee == nil {
						return
					}
					var classes []string
					for _, h := range held {
						if h.Class != "" {
							classes = append(classes, h.Class)
						}
					}
					fi.calls = append(fi.calls, callSite{callee: callee, held: classes, pos: call.Pos()})
				},
			})
			fns = append(fns, fi)
		}
	}

	// Transitive lock sets: a function acquires what it locks directly
	// plus whatever its static callees acquire. Imported packages' facts
	// already exist; the fixpoint resolves same-package call chains.
	calleeClasses := func(fi *fnInfo, callee *types.Func) []string {
		var fact locksFact
		if pass.ImportObjectFact(callee, &fact) {
			return fact.Classes
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			set := make(map[string]bool)
			for _, c := range fi.acquired {
				set[c] = true
			}
			for _, cs := range fi.calls {
				for _, c := range calleeClasses(fi, cs.callee) {
					set[c] = true
				}
			}
			if len(set) == 0 {
				continue
			}
			classes := make([]string, 0, len(set))
			for c := range set {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			var have locksFact
			if pass.ImportObjectFact(fi.obj, &have) && equal(have.Classes, classes) {
				continue
			}
			pass.ExportObjectFact(fi.obj, &locksFact{Classes: classes})
			changed = true
		}
	}

	// Edges: direct nesting plus calls made under a held lock into
	// functions that acquire.
	for _, fi := range fns {
		edges := fi.edges
		for _, cs := range fi.calls {
			if len(cs.held) == 0 {
				continue
			}
			for _, to := range calleeClasses(fi, cs.callee) {
				for _, from := range cs.held {
					if from != to {
						edges = append(edges, Edge{From: from, To: to, Pos: cs.pos})
					}
				}
			}
		}
		if len(edges) > 0 {
			pass.ExportObjectFact(fi.obj, &edgesFact{Edges: edges})
		}
	}
	return nil, nil
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finish merges every function's edges into the class graph and reports
// each strongly connected component of two or more lock classes.
func finish(mp *analysis.ModulePass) error {
	type edgeKey struct{ from, to string }
	first := make(map[edgeKey]token.Pos)
	adj := make(map[string][]string)
	var nodes []string
	seen := make(map[string]bool)
	addNode := func(c string) {
		if !seen[c] {
			seen[c] = true
			nodes = append(nodes, c)
		}
	}
	for _, of := range mp.AllObjectFacts(&edgesFact{}) {
		for _, e := range of.Fact.(*edgesFact).Edges {
			addNode(e.From)
			addNode(e.To)
			k := edgeKey{e.From, e.To}
			if _, ok := first[k]; !ok {
				first[k] = e.Pos
				adj[e.From] = append(adj[e.From], e.To)
			}
		}
	}
	sort.Strings(nodes)
	for _, vs := range adj {
		sort.Strings(vs)
	}

	for _, scc := range tarjan(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		// Anchor the report on the lexically first intra-component edge.
		var at token.Pos
		var from, to string
		for _, f := range scc {
			for _, t := range adj[f] {
				if inSCC[t] && (from == "" || f < from || (f == from && t < to)) {
					from, to, at = f, t, first[edgeKey{f, t}]
				}
			}
		}
		mp.Report(analysis.Diagnostic{
			Pos: at,
			Message: "mutex acquisition-order cycle " + strings.Join(scc, " -> ") +
				": acquiring " + to + " while " + from + " is held here conflicts with the reverse nesting elsewhere; pick one global lock order",
		})
	}
	return nil
}

// tarjan computes strongly connected components; inputs are pre-sorted
// for determinism.
func tarjan(nodes []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return sccs
}
