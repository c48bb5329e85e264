package milp

import (
	"context"
	"math"
	"testing"

	"flex/internal/lp"
)

// fuzzILP decodes data into a small all-integer program: up to 12
// variables, mostly binary with a few general integers up to 3, each
// bounded by a short singleton row the way placement.BatchILP states its
// binaries, plus up to six LE/GE/EQ rows with small integer coefficients
// of either sign. Bytes past the end of data read as zero. ub[j] is
// variable j's upper bound; the box holds at most 4096 points.
func fuzzILP(data []byte) (p *Problem, ub []int) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	n := 1 + next()%12
	maximize := next()%2 == 0
	rows := 1 + next()%6
	p = &Problem{
		LP:      lp.Problem{Maximize: maximize, Objective: make([]float64, n)},
		Integer: make([]bool, n),
	}
	ub = make([]int, n)
	points := 1
	for j := 0; j < n; j++ {
		b := next()
		ub[j] = 1
		if b%4 == 3 && points*(2+b/4%2) <= 4096 {
			ub[j] = 2 + b/4%2
		} else if points*2 > 4096 {
			ub[j] = 0
		}
		points *= ub[j] + 1
		p.Integer[j] = true
		p.LP.Objective[j] = float64(next()%17 - 8)
		bound := make([]float64, j+1)
		bound[j] = 1
		p.LP.AddConstraint(bound, lp.LE, float64(ub[j]))
	}
	for i := 0; i < rows; i++ {
		sense := lp.Sense(next() % 3)
		rhs := float64(next()%24 - 3)
		c := make([]float64, n)
		for j := range c {
			if b := next(); b%3 != 0 {
				c[j] = float64(b%11 - 4)
			}
		}
		p.LP.AddConstraint(c, sense, rhs)
	}
	return p, ub
}

// bruteForce enumerates every integer point of the box 0..ub and returns
// the best feasible objective. All data are small integers, so float
// arithmetic is exact and no tolerance is needed.
func bruteForce(p *Problem, ub []int) (best float64, found bool) {
	n := len(ub)
	x := make([]float64, n)
	for {
		ok := true
		for _, c := range p.LP.Constraints {
			lhs := 0.0
			for j, a := range c.Coeffs {
				lhs += a * x[j]
			}
			if c.Sense == lp.LE && lhs > c.RHS || c.Sense == lp.GE && lhs < c.RHS || c.Sense == lp.EQ && lhs != c.RHS {
				ok = false
				break
			}
		}
		if ok {
			obj := p.ObjectiveValue(x)
			if !found || (p.LP.Maximize && obj > best) || (!p.LP.Maximize && obj < best) {
				best, found = obj, true
			}
		}
		j := 0
		for ; j < n; j++ {
			if int(x[j]) < ub[j] {
				x[j]++
				break
			}
			x[j] = 0
		}
		if j == n {
			return best, found
		}
	}
}

// sameResult reports whether two solves of one problem ended identically:
// status, stop reason, node count, and the bits of the objective and of
// every coordinate of the solution.
func sameResult(a, b Result) bool {
	if a.Status != b.Status || a.Stop != b.Stop || a.Nodes != b.Nodes ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// FuzzMILPMatchesBruteForce is the differential oracle for the engine
// there is. On small random integer programs the search, serial and
// with four workers, must reach the status and objective exhaustive
// enumeration finds, and the two worker counts must agree with each other
// node for node. A second, truncated leg stops the same program at a node
// budget of 1..40 taken from the input's last byte — where a round has to
// split what is left of the budget — and requires the two worker counts to
// end identically, within the budget, on a point that is feasible and no
// better than the enumerated optimum. Both legs attach the completion
// heuristic, which builds its candidates in each worker's own Packing: a
// Packing that went stale between calls, or one that workers shared,
// would hand the two worker counts different candidates and trees.
func FuzzMILPMatchesBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 0, 12, 0, 9, 0, 15, 0, 11, 0, 14, 0, 10, 0, 13, 0, 4, 7, 8, 5, 7, 8})
	f.Add([]byte{11, 1, 5, 3, 1, 7, 2, 0, 3, 3, 4, 0, 5, 7, 6, 0, 7, 0, 8, 3, 9, 0, 10, 0, 11, 0, 12, 2, 9, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 1, 5, 250, 251, 253, 254, 1, 2, 4, 5, 7, 8, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ub := fuzzILP(data)
		want, feasible := bruteForce(p, ub)
		heuristic := completionHeuristic(p)
		var ref Result
		for _, workers := range []int{1, 4} {
			r, err := SolveContext(context.Background(), p, Options{Workers: workers, Heuristic: heuristic})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !feasible {
				if r.Status != Infeasible {
					t.Fatalf("workers=%d: status %v objective %v, enumeration finds no feasible point", workers, r.Status, r.Objective)
				}
			} else {
				if r.Status != Optimal {
					t.Fatalf("workers=%d: status %v, enumeration finds optimum %v", workers, r.Status, want)
				}
				if math.Abs(r.Objective-want) > 1e-6 {
					t.Fatalf("workers=%d: objective %v, enumeration finds %v", workers, r.Objective, want)
				}
				if !referenceFeasible(p, r.X) {
					t.Fatalf("workers=%d: returned point %v is infeasible", workers, r.X)
				}
			}
			if workers == 1 {
				ref = r
			} else if r.Nodes != ref.Nodes || r.SimplexIterations != ref.SimplexIterations ||
				math.Float64bits(r.Objective) != math.Float64bits(ref.Objective) {
				t.Fatalf("workers=%d: nodes %d pivots %d objective %v; serial %d, %d, %v",
					workers, r.Nodes, r.SimplexIterations, r.Objective, ref.Nodes, ref.SimplexIterations, ref.Objective)
			}
		}

		full := ref
		budget := 1
		if len(data) > 0 {
			budget = 1 + int(data[len(data)-1])%40
		}
		for _, workers := range []int{1, 4} {
			r, err := SolveContext(context.Background(), p, Options{Workers: workers, MaxNodes: budget, Heuristic: heuristic})
			if err != nil {
				t.Fatalf("budget %d workers=%d: %v", budget, workers, err)
			}
			if r.Nodes > budget {
				t.Fatalf("budget %d workers=%d: explored %d nodes", budget, workers, r.Nodes)
			}
			switch r.Stop {
			case StopNodeLimit:
				if r.Nodes != budget {
					t.Fatalf("budget %d workers=%d: stopped on the node limit after %d nodes", budget, workers, r.Nodes)
				}
			case StopNone:
				// The budget did not bind: this is the full search again.
				if r.Status != full.Status || math.Abs(r.Objective-full.Objective) > 1e-6 {
					t.Fatalf("budget %d workers=%d: finished with %v %v, the full search with %v %v",
						budget, workers, r.Status, r.Objective, full.Status, full.Objective)
				}
			default:
				t.Fatalf("budget %d workers=%d: stop reason %v", budget, workers, r.Stop)
			}
			if r.X != nil {
				if !feasible || !referenceFeasible(p, r.X) {
					t.Fatalf("budget %d workers=%d: incumbent %v is infeasible", budget, workers, r.X)
				}
				if better := r.Objective - want; (p.LP.Maximize && better > 1e-6) || (!p.LP.Maximize && better < -1e-6) {
					t.Fatalf("budget %d workers=%d: incumbent objective %v beats the enumerated optimum %v", budget, workers, r.Objective, want)
				}
			}
			if workers == 1 {
				ref = r
			} else if !sameResult(r, ref) {
				t.Fatalf("budget %d workers=%d: %v %v after %d nodes at %v; serial %v %v after %d nodes at %v",
					budget, workers, r.Status, r.Objective, r.Nodes, r.X, ref.Status, ref.Objective, ref.Nodes, ref.X)
			}
		}
	})
}
