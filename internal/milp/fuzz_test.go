package milp

import (
	"context"
	"math"
	"testing"

	"flex/internal/lp"
)

// fuzzILP decodes data into a small 0/1 packing program: up to 12 binary
// variables with objective coefficients in 0..8 and up to six rows with
// coefficients in 0..6 and right-hand sides in -3..20. Each variable gets
// a short singleton row x_j <= 1 the way tests state binaries, unless its
// byte is 3 mod 4; those share one assignment row Σ x_j <= 1 — how
// placement.BatchILP's Eq. 1 bounds its variables — when the second byte
// is even, and otherwise get a singleton row at the end only if no other
// row bounds them. Bytes past the end of data read as zero.
func fuzzILP(data []byte) *Problem {
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
	assign := next()%2 == 0
	rows := 1 + next()%6
	p := &Problem{LP: lp.Problem{Objective: make([]float64, n)}}
	var shared []int
	for j := 0; j < n; j++ {
		if next()%4 == 3 {
			shared = append(shared, j)
		} else {
			bound := make([]float64, j+1)
			bound[j] = 1
			p.LP.AddConstraint(bound, 1)
		}
		p.LP.Objective[j] = float64(next() % 9)
	}
	if assign && len(shared) > 0 {
		c := make([]float64, n)
		for _, j := range shared {
			c[j] = 1
		}
		p.LP.AddConstraint(c, 1)
	}
	for i := 0; i < rows; i++ {
		next() // a row's first byte is spare
		rhs := float64(next()%24 - 3)
		c := make([]float64, n)
		for j := range c {
			if b := next(); b%3 != 0 {
				c[j] = float64(b % 7)
			}
		}
		p.LP.AddConstraint(c, rhs)
	}
	for _, j := range shared {
		bounded := false
		for _, c := range p.LP.Constraints {
			if j < len(c.Coeffs) && c.Coeffs[j] > 0 && c.RHS <= c.Coeffs[j] {
				bounded = true
			}
		}
		if !bounded {
			bound := make([]float64, j+1)
			bound[j] = 1
			p.LP.AddConstraint(bound, 1)
		}
	}
	return p
}

// bruteForce enumerates every 0/1 point and returns the best feasible
// objective. All data are small integers, so float arithmetic is exact and
// no tolerance is needed.
func bruteForce(p *Problem) (best float64, found bool) {
	n := p.LP.NumVars()
	x := make([]float64, n)
	for {
		ok := true
		for _, c := range p.LP.Constraints {
			lhs := 0.0
			for j, a := range c.Coeffs {
				lhs += a * x[j]
			}
			if lhs > c.RHS {
				ok = false
				break
			}
		}
		if ok {
			if obj := p.ObjectiveValue(x); !found || obj > best {
				best, found = obj, true
			}
		}
		j := 0
		for ; j < n && x[j] == 1; j++ {
			x[j] = 0
		}
		if j == n {
			return best, found
		}
		x[j] = 1
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
// there is. On small random 0/1 packing programs the search, serial and
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
		p := fuzzILP(data)
		want, feasible := bruteForce(p)
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
				if r.Objective > want+1e-6 {
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
