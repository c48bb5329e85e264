// Package eventcheck flags flight-recorder emission while a sync.Mutex
// or sync.RWMutex is held: any method call on obs/recorder.Recorder
// (Emit, NextEpisode, …) inside a critical section — directly, or
// through any chain of helpers, across package boundaries.
//
// With a sink attached, Emit serializes JSON and writes it to the sink.
// Calling a recorder method while holding a component mutex stretches
// the component's critical section across that serialization and I/O,
// on hot paths — the controller's round, the actuation path — that are
// themselves recorded. Every instrumented path in the repo collects what
// it needs under its lock, unlocks, then emits; this analyzer keeps it
// that way.
//
// Interprocedurally, the analyzer exports an emits fact on every
// function from which a recorder method call is statically reachable
// (the defining package publishes it; importers consume it), so a
// helper like logDecision() that emits is caught at a locked call site
// in another package just like a direct r.Emit would be.
//
// The held-lock tracking is the shared lexical walk in
// flex/internal/analysis/lockflow (see that package for the exact
// semantics).
package eventcheck

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"flex/internal/analysis"
	"flex/internal/analysis/lockflow"
)

// Analyzer is the eventcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "eventcheck",
	Doc: "flag flight-recorder emission while a sync mutex is held\n\n" +
		"Recorder methods may write to a sink; calling them under a\n" +
		"component mutex drags serialization and I/O into the critical\n" +
		"section. Emit after unlocking — directly and through helper\n" +
		"functions in any package.",
	Run: run,
}

// recorderSuffix identifies the flight-recorder type across fixture and
// real import paths.
const recorderSuffix = "internal/obs/recorder.Recorder"

// emitsFact marks a function from which a flight-recorder method call is
// statically reachable.
type emitsFact struct {
	// Via names the recorder method ("Emit") or the intermediate callee
	// ("telemetry.logDecision") the emission flows through.
	Via string
}

func (*emitsFact) AFact() {}

func run(pass *analysis.Pass) (interface{}, error) {
	exportEmitters(pass)

	lockflow.Walk(pass.TypesInfo, pass.Files, lockflow.Hooks{
		OnCall: func(call *ast.CallExpr, held []lockflow.Lock) {
			if len(held) == 0 {
				return
			}
			if name := recorderCall(pass.TypesInfo, call); name != "" {
				pass.Reportf(call.Pos(), "flight-recorder %s while mutex %q is held; collect the event under the lock and emit after unlocking", name, held[0].Key)
				return
			}
			callee := analysis.StaticCallee(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			var fact emitsFact
			if pass.ImportObjectFact(callee, &fact) {
				pass.Reportf(call.Pos(), "call to %s emits flight-recorder events (via %s) while mutex %q is held; emit after unlocking", callee.Name(), fact.Via, held[0].Key)
			}
		},
	})
	return nil, nil
}

// exportEmitters publishes an emitsFact for every function in the package
// from which a recorder method call is statically reachable. Facts from
// imported packages already exist (the driver runs packages in dependency
// order); a fixpoint loop handles helper chains within this package
// regardless of declaration order.
func exportEmitters(pass *analysis.Pass) {
	type fnDecl struct {
		obj  *types.Func
		decl *ast.FuncDecl
	}
	var fns []fnDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnDecl{obj, fd})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			var have emitsFact
			if pass.ImportObjectFact(fn.obj, &have) {
				continue
			}
			via := ""
			ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
				if via != "" {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := recorderCall(pass.TypesInfo, call); name != "" {
					via = name
					return false
				}
				if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil {
					var fact emitsFact
					if pass.ImportObjectFact(callee, &fact) {
						via = calleeLabel(callee)
						return false
					}
				}
				return true
			})
			if via != "" {
				pass.ExportObjectFact(fn.obj, &emitsFact{Via: via})
				changed = true
			}
		}
	}
}

// calleeLabel renders a short "pkg.Func" label for diagnostics.
func calleeLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	path := fn.Pkg().Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return fmt.Sprintf("%s.%s", path, fn.Name())
}

// recorderCall returns a display name ("Emit") when the call is a method
// on the flight recorder (pointer or value receiver).
func recorderCall(info *types.Info, call *ast.CallExpr) string {
	recv, name, ok := analysis.MethodRecv(info, call)
	if !ok {
		return ""
	}
	recv = strings.TrimPrefix(recv, "*")
	if !strings.HasSuffix(recv, recorderSuffix) {
		return ""
	}
	return name
}
