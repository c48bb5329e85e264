package flex

import (
	"context"
	"fmt"
	"testing"

	"flex/internal/milp"
	"flex/internal/placement"
)

// solverBenchProblem is the batch-placement ILP the scaling benchmark
// solves: one Flex-Offline flush on the paper room.
func solverBenchProblem(b *testing.B) *milp.Problem {
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
	// capacity: on this instance every worker count runs the full node
	// budget (the search does not prove optimality first), so nodes/s
	// compares throughput on one and the same tree.
	return placement.BatchILP(room, trace[:40])
}

// BenchmarkSolverScaling measures branch-and-bound node throughput and
// the objective reached on the batch-placement ILP, truncated at a fixed
// node budget with no warm start and no heuristic: the one engine, at one
// worker ("serial", the base benchjson -speedup divides by) and at 2, 4
// and 8. The objective column is the same in every row — the tree does not
// depend on the worker count — and above zero: a cold search finds its own
// incumbents. B/op and allocs/op put on record what a solve keeps: node
// evaluations allocate only the candidates they keep, so what is left is
// the per-solve scratch each worker makes and the tree itself. The metrics
// feed BENCH_solver.json (make bench-solver).
func BenchmarkSolverScaling(b *testing.B) {
	p := solverBenchProblem(b)
	const nodeBudget = 300

	for _, w := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			total, obj := 0, 0.0
			for i := 0; i < b.N; i++ {
				r, err := milp.SolveContext(context.Background(), p, milp.Options{Workers: w, MaxNodes: nodeBudget})
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
