package milp_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flex/internal/lp"
	"flex/internal/milp"
	"flex/internal/placement"
	"flex/internal/workload"
)

// batch40 is the ILP the solver benchmarks and TestSolveCountsGolden solve:
// the first 40 deployments of §V-A trace 1 on the paper room, 240 binaries
// under binding capacity.
func batch40(t *testing.T) *milp.Problem {
	t.Helper()
	room := placement.PaperRoom()
	trace, err := workload.GenerateTrace(workload.DefaultTraceConfig(room.Topo.ProvisionedPower()), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return placement.BatchILP(room, trace[:40])
}

// TestDeterministicTruncationReproducible: a search stopped by MaxNodes
// ends identically — status, stop reason, node count, objective and
// solution to the bit — for any worker count, and a search that reports
// the node limit has explored exactly MaxNodes nodes. The batch-40
// budgets are one node, less than one dive to a leaf, half the benchmarks'
// budget and all of it, from the greedy warm start and cold.
func TestDeterministicTruncationReproducible(t *testing.T) {
	batch := batch40(t)
	for _, in := range []struct {
		name      string
		p         *milp.Problem
		incumbent []float64
		budgets   []int
	}{
		{"knapsack", milp.RandomKnapsack(21, 18), nil, []int{40}},
		{"batch-40-cold", batch, nil, []int{1, 17, 150, 300}},
		{"batch-40-warm", batch, milp.GreedyBinaryIncumbent(batch), []int{1, 17, 150, 300}},
	} {
		for _, budget := range in.budgets {
			t.Run(fmt.Sprintf("%s/%d", in.name, budget), func(t *testing.T) {
				var ref milp.Result
				for _, workers := range []int{1, 2, 4, 8} {
					r, err := milp.SolveContext(context.Background(), in.p, milp.Options{
						Workers: workers, MaxNodes: budget, Incumbent: in.incumbent,
					})
					if err != nil {
						t.Fatal(err)
					}
					if r.Nodes > budget || (r.Stop == milp.StopNodeLimit && r.Nodes != budget) {
						t.Errorf("workers=%d: %d nodes, stop %v", workers, r.Nodes, r.Stop)
					}
					if workers == 1 {
						ref = r
						continue
					}
					if !milp.SameResult(r, ref) {
						t.Errorf("workers=%d: (%v, %v, %v, %d nodes) != serial (%v, %v, %v, %d nodes), or the solutions differ",
							workers, r.Status, r.Stop, r.Objective, r.Nodes, ref.Status, ref.Stop, ref.Objective, ref.Nodes)
					}
				}
			})
		}
	}
}

// TestDiveChildrenWarmStart: on the batch-40 ILP at 300 nodes from the
// greedy incumbent (TestSolveCountsGolden's first case), every dive child
// re-solves warm from its parent's tableau — none reaches the dual
// simplex's iteration cap or falls back to a cold solve, which is where a
// plain minimum-ratio test on these dual-degenerate LPs ends up — and each
// warm answer is a cold solve's: the same status, objectives within 1e-7.
func TestDiveChildrenWarmStart(t *testing.T) {
	p := batch40(t)
	children, warm := 0, 0
	defer milp.SetWarmHook(func(sub *lp.Problem, r lp.Result, ok bool) {
		children++
		if !ok {
			return
		}
		warm++
		cold, err := lp.Solve(sub)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != r.Status {
			t.Errorf("child %d: warm %v, cold %v", children, r.Status, cold.Status)
		} else if r.Status == lp.Optimal && math.Abs(r.Objective-cold.Objective) > 1e-7*max(1, math.Abs(cold.Objective)) {
			t.Errorf("child %d: warm objective %v, cold %v", children, r.Objective, cold.Objective)
		}
	})()
	res, err := milp.SolveContext(context.Background(), p, milp.Options{
		Workers: 1, MaxNodes: 300, Incumbent: milp.GreedyBinaryIncumbent(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if children == 0 || warm != children {
		t.Errorf("%d of %d dive children warm-started over %d nodes", warm, children, res.Nodes)
	}
	t.Logf("%d of %d nodes were dive children; %d pivots in all", children, res.Nodes, res.SimplexIterations)
}

// TestColdSolveFindsIncumbent: with no warm start and no heuristic the
// search still reaches leaves — a dive ends on one — so the batch-40 ILP
// at the benchmarks' 300-node budget ends on a placement worth at least
// 8.7 MW of the 9.6 MW room, the same one at every worker count.
func TestColdSolveFindsIncumbent(t *testing.T) {
	p := batch40(t)
	var ref milp.Result
	for _, workers := range []int{1, 2, 4, 8} {
		r, err := milp.SolveContext(context.Background(), p, milp.Options{Workers: workers, MaxNodes: 300})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != milp.Feasible || r.X == nil || r.Objective < 8.7 {
			t.Fatalf("workers=%d: %v, objective %v MW after %d nodes", workers, r.Status, r.Objective, r.Nodes)
		}
		if workers == 1 {
			ref = r
		} else if !milp.SameResult(r, ref) {
			t.Errorf("workers=%d: objective %v after %d nodes, serial %v after %d, or the solutions differ",
				workers, r.Objective, r.Nodes, ref.Objective, ref.Nodes)
		}
	}
}
