// Package clockcheck forbids direct use of the wall clock. Every
// time-dependent Flex component — the simulator, the telemetry pipeline,
// Flex-Online controllers, the rackmgr watchdog — must take its time from
// an injected clock.Clock so that tests and the simulator can replay the
// UPS overload-tolerance window deterministically. A stray time.Now or
// time.Sleep silently couples a component to wall time and breaks that
// replay. A reconnect throttle that read the wall clock was exactly such a
// regression; the testdata/src/transport fixture reproduces it.
//
// The check exempts the clock package itself (clock.Real is the one place
// allowed to touch the wall clock) and _test.go files, where wall-clock
// deadlines around blocking operations are legitimate.
//
// Interprocedurally, the clock package's functions that touch the wall
// clock carry an exported fact, and any *static* call to such a function
// from outside the exemption — clock.Real{}.Now() on a concrete value,
// or a helper that wraps it — is flagged at the call site. Dynamic calls
// through the clock.Clock interface are deliberately not flagged: interface
// injection is the sanctioned pattern, and which implementation runs is a
// wiring decision, not a wall-clock leak.
package clockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"flex/internal/analysis"
)

// forbidden lists the time package entry points that read or wait on the
// wall clock. Pure constructors like time.Date or time.Unix are fine.
var forbidden = map[string]bool{
	"time.Now":       true,
	"time.Sleep":     true,
	"time.After":     true,
	"time.AfterFunc": true,
	"time.Tick":      true,
	"time.NewTimer":  true,
	"time.NewTicker": true,
	"time.Since":     true,
	"time.Until":     true,
}

// Analyzer is the clockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "clockcheck",
	Doc: "forbid direct wall-clock use outside internal/clock\n\n" +
		"Flex components must use the injected clock.Clock; direct time.Now/\n" +
		"time.Sleep/time.After calls break deterministic simulation and the\n" +
		"controller's shed-deadline tests.",
	Run: run,
}

// wallClockFact marks an exempt-package function that reads or waits on
// the wall clock; static calls to it from outside the exemption are
// flagged at the call site.
type wallClockFact struct {
	// Via is the time entry point the function touches, e.g. "time.Now".
	Via string
}

func (*wallClockFact) AFact() {}

func run(pass *analysis.Pass) (interface{}, error) {
	if exemptPackage(pass.Pkg.Path()) {
		exportWallClockFacts(pass)
		return nil, nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.PkgFunc(pass.TypesInfo, call)
			if forbidden[fn] {
				pass.Reportf(call.Pos(), "direct %s call: use the injected clock.Clock so time is deterministic in simulation and tests", fn)
				return true
			}
			if callee := analysis.StaticCallee(pass.TypesInfo, call); callee != nil {
				var fact wallClockFact
				if pass.ImportObjectFact(callee, &fact) {
					pass.Reportf(call.Pos(), "call to %s reaches the wall clock (%s): inject it as a clock.Clock so time is deterministic in simulation and tests", callee.Name(), fact.Via)
				}
			}
			return true
		})
	}
	return nil, nil
}

// exportWallClockFacts publishes a wallClockFact for every function in
// the exempt clock package whose body touches a forbidden time entry
// point. The driver analyzes the clock package before its importers, so
// the facts exist when call sites elsewhere are checked.
func exportWallClockFacts(pass *analysis.Pass) {
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
			via := ""
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if via != "" {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := analysis.PkgFunc(pass.TypesInfo, call); forbidden[fn] {
						via = fn
						return false
					}
				}
				return true
			})
			if via != "" {
				pass.ExportObjectFact(obj, &wallClockFact{Via: via})
			}
		}
	}
}

// exemptPackage reports whether pkg is the injectable clock itself.
func exemptPackage(path string) bool {
	return path == "internal/clock" || strings.HasSuffix(path, "/internal/clock")
}
