// Package shedcheck flags discarded error returns from the power-shedding
// call chain: telemetry publish/ack and controller plan-execution and
// actuation functions.
//
// Flex's safety story ends at an actuator: when a UPS is overloaded the
// controller must shed load within the overload-tolerance window, and the
// only evidence that a shutdown, throttle, or publish actually happened
// is the returned error. A call like m.Shutdown(rack) as a bare statement
// — or with its error assigned to _ — turns an actuation failure into a
// silent no-op: the controller believes power was shed, the UPS keeps
// overdrawing, and the breaker trip cascades (paper Figure 4). Errors
// from these functions must be checked, counted, or at minimum logged.
//
// The check fires when a call statement discards a final error result
// from a function whose name is in the shed-critical set (Publish, Ack,
// Throttle, Shutdown, Restore, Enforce, Execute, Apply, Shed, Plan), with
// or without the Op, Context or Batch suffix the tree's variants carry —
// the controller sheds through ShutdownOp/ThrottleOp/RestoreOp and plans
// through PlanContext. _test.go files are exempt: tests discard errors
// deliberately when exercising idempotency.
package shedcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flex/internal/analysis"
)

// Critical is the set of function/method names whose errors must never be
// discarded, under their own name or with one of variantSuffixes.
var Critical = map[string]bool{
	"Publish":  true,
	"Ack":      true,
	"Throttle": true,
	"Shutdown": true,
	"Restore":  true,
	"Enforce":  true,
	"Execute":  true,
	"Apply":    true,
	"Shed":     true,
	"Plan":     true,
}

// variantSuffixes mark a critical function's variants: the same act with
// provenance (ShutdownOp), under a deadline (PlanContext), or many at once
// (PublishBatch).
var variantSuffixes = []string{"Op", "Context", "Batch"}

// critical reports whether name is a shed-critical function or a variant
// of one.
func critical(name string) bool {
	for _, suffix := range variantSuffixes {
		if base, ok := strings.CutSuffix(name, suffix); ok && Critical[base] {
			return true
		}
	}
	return Critical[name]
}

// Analyzer is the shedcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "shedcheck",
	Doc: "flag discarded errors from shed-critical calls\n\n" +
		"Errors from publish/ack/actuation/planning functions signal a\n" +
		"failure to shed power; discarding one hides a safety violation.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					report(pass, call, "discarded")
				}
			case *ast.AssignStmt:
				if s.Tok != token.ASSIGN || len(s.Rhs) != 1 || !allBlank(s.Lhs) {
					return true
				}
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					report(pass, call, "assigned to _")
				}
			}
			return true
		})
	}
	return nil, nil
}

// report fires when call is a shed-critical call returning a final error.
func report(pass *analysis.Pass, call *ast.CallExpr, how string) {
	name, ok := calleeName(call)
	if !ok || !critical(name) {
		return
	}
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	if res.Len() == 0 {
		return
	}
	last := res.At(res.Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return
	}
	pass.Reportf(call.Pos(), "error from shed-critical call %s %s: a dropped error here is a silent failure to shed power", name, how)
}

func calleeName(call *ast.CallExpr) (string, bool) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name, true
	case *ast.SelectorExpr:
		return fn.Sel.Name, true
	}
	return "", false
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		ident, ok := e.(*ast.Ident)
		if !ok || ident.Name != "_" {
			return false
		}
	}
	return true
}
