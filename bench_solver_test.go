package flex

import (
	"context"
	"fmt"
	"math"
	"testing"

	"flex/internal/lp"
	"flex/internal/milp"
)

// referenceSerialSolve is the repo's previous branch-and-bound engine,
// preserved verbatim in spirit as the scaling baseline: a serial DFS that
// clones the LP and re-solves it from scratch at every node. The parallel
// frontier engine in internal/milp must beat its node throughput — on a
// single-CPU runner the speedup comes from the per-node work it no longer
// does (no clone, arena-reused tableaux, fix-and-substitute presolve), and
// extra workers must at least not lose that ground.
func referenceSerialSolve(p *milp.Problem, maxNodes int) (nodes int, objective float64) {
	n := p.LP.NumVars()
	sign := 1.0
	if !p.LP.Maximize {
		sign = -1.0
	}
	var bestObj float64
	haveBest := false

	type node struct {
		extra []lp.Constraint
		bound float64
	}
	stack := []node{{bound: math.Inf(1)}}
	for len(stack) > 0 && nodes < maxNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if haveBest && nd.bound <= sign*bestObj+1e-6 {
			continue
		}
		sub := p.LP.Clone()
		sub.Constraints = append(sub.Constraints, nd.extra...)
		r, err := lp.Solve(sub)
		if err != nil {
			return nodes, bestObj
		}
		nodes++
		if r.Status != lp.Optimal {
			continue
		}
		relax := sign * r.Objective
		if haveBest && relax <= sign*bestObj+1e-6 {
			continue
		}
		branch, frac := -1, 0.0
		for j := 0; j < n; j++ {
			if !p.Integer[j] {
				continue
			}
			f := r.X[j] - math.Floor(r.X[j])
			dist := math.Min(f, 1-f)
			if dist > 1e-6 && dist > frac {
				frac = dist
				branch = j
			}
		}
		if branch == -1 {
			obj := 0.0
			for j, c := range p.LP.Objective {
				obj += c * r.X[j]
			}
			if !haveBest || sign*obj > sign*bestObj {
				bestObj, haveBest = obj, true
			}
			continue
		}
		unit := make([]float64, n)
		unit[branch] = 1
		floorC := lp.Constraint{Coeffs: unit, Sense: lp.LE, RHS: math.Floor(r.X[branch])}
		ceilC := lp.Constraint{Coeffs: unit, Sense: lp.GE, RHS: math.Ceil(r.X[branch])}
		for _, c := range []lp.Constraint{floorC, ceilC} {
			child := node{bound: relax, extra: make([]lp.Constraint, len(nd.extra)+1)}
			copy(child.extra, nd.extra)
			child.extra[len(nd.extra)] = c
			stack = append(stack, child)
		}
	}
	return nodes, bestObj
}

// solverBenchProblem is the batch-placement ILP the scaling benchmark
// solves: one Flex-Offline flush on the paper room.
func solverBenchProblem(b *testing.B) *MILPProblem {
	b.Helper()
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(trace) < 40 {
		b.Fatalf("trace too short: %d", len(trace))
	}
	// 40 deployments × 6 UPS combinations = 240 binaries with binding
	// capacity: on this instance every engine runs the full node budget
	// (none proves optimality first), so nodes/s compares pure per-node
	// throughput rather than search luck.
	return BatchPlacementILP(room, trace[:40])
}

// BenchmarkSolverScaling measures branch-and-bound node throughput and
// the objective reached on the batch-placement ILP, all truncated at the
// same node budget with no warm start: the preserved serial reference
// engine, the free-running diving engine at 1/2/4/8 workers, and the
// Deterministic round-based engine — the mode every production caller
// (FlexOffline, the online re-solve) runs — at the same worker counts. The
// two engines share the chart so that neither is retired on the other's
// numbers. The metrics feed BENCH_solver.json (make bench-solver);
// benchjson -speedup reports each variant's nodes/s relative to "serial".
func BenchmarkSolverScaling(b *testing.B) {
	p := solverBenchProblem(b)
	const nodeBudget = 300

	b.Run("serial", func(b *testing.B) {
		total, obj := 0, 0.0
		for i := 0; i < b.N; i++ {
			var n int
			n, obj = referenceSerialSolve(p, nodeBudget)
			total += n
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "nodes/s")
		b.ReportMetric(obj, "objective")
	})

	for _, engine := range []struct {
		prefix        string
		deterministic bool
	}{{"", false}, {"deterministic/", true}} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sworkers=%d", engine.prefix, w), func(b *testing.B) {
				total, obj := 0, 0.0
				for i := 0; i < b.N; i++ {
					r, err := SolveMILP(context.Background(), p, SolveOptions{
						Workers: w, MaxNodes: nodeBudget, Deterministic: engine.deterministic,
					})
					if err != nil {
						b.Fatal(err)
					}
					total += r.Nodes
					obj = r.Objective
				}
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "nodes/s")
				b.ReportMetric(obj, "objective")
			})
		}
	}
}
