package lp

import (
	"math"
	"testing"
)

// fuzzLP decodes data into a small packing LP: up to 8 variables with
// objective coefficients in 0..6, a singleton bound row x_j <= 1..3 on all
// but every fourth variable, and up to 6 rows with coefficients in 0..6 and
// right-hand sides in -3..16. Bytes past the end of data read as zero.
func fuzzLP(next func() int) *Problem {
	n := 1 + next()%8
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(next() % 7)
		if b := next(); b%4 != 3 {
			unit := make([]float64, j+1)
			unit[j] = 1
			p.AddConstraint(unit, float64(1+b%3))
		}
	}
	for i, rows := 0, 1+next()%6; i < rows; i++ {
		c := make([]float64, n)
		for j := range c {
			if b := next(); b%3 != 0 {
				c[j] = float64(b % 7)
			}
		}
		p.AddConstraint(c, float64(next()%20-3))
	}
	return p
}

// fix returns p's child with column k fixed at v and every row that leaves
// all zero dropped, plus the parent column of each child column and the
// parent row of each child row.
func fix(p *Problem, k int, v float64) (child *Problem, cols, rows []int) {
	n := p.NumVars()
	child = &Problem{}
	for j := 0; j < n; j++ {
		if j != k {
			child.Objective = append(child.Objective, p.Objective[j])
			cols = append(cols, j)
		}
	}
	for i, c := range p.Constraints {
		rhs := c.RHS
		if k < len(c.Coeffs) {
			rhs -= c.Coeffs[k] * v
		}
		coeffs := make([]float64, n-1)
		nz := false
		for k2, j := range cols {
			if j < len(c.Coeffs) {
				coeffs[k2] = c.Coeffs[j]
				nz = nz || coeffs[k2] > 0 || coeffs[k2] < 0
			}
		}
		if nz {
			child.AddConstraint(coeffs, rhs)
			rows = append(rows, i)
		}
	}
	return child, cols, rows
}

// FuzzWarmMatchesCold is Resolve's differential oracle. It decodes a small
// packing LP, solves it, then fixes up to six variables one at a time at 0
// or 1, dropping the rows that leave all zero, and re-solves each child
// from its parent's tableau. Warm and cold must agree on the status, on
// the objective within 1e-9 relative, and the warm x must satisfy the
// child's rows. Fixing a variable at 1 lowers right-hand sides, below zero
// too: a cold solve calls such a child infeasible at once, while the warm
// one starts its dual simplex from a negative right-hand side. Resolve
// falls back to a cold solve whenever its own check fails, so what this
// can catch is a warm answer that passes the check and is wrong: a
// suboptimal vertex, or a feasible child called infeasible.
func FuzzWarmMatchesCold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 10, 0, 9, 1, 2, 5, 7, 3, 3, 4, 0, 13, 1, 1, 2, 3, 0, 1, 1, 0})
	// The root has a row with a negative right-hand side: it is infeasible,
	// its tableau is no parent, and every child is solved cold.
	f.Add([]byte{2, 0, 6, 1, 8, 0, 5, 0, 1, 5, 2, 0, 1, 1, 7, 5, 7, 2, 8})
	// Fixing x0 = 1 turns 4x0 + x1 <= 2 into x1 <= -2: the cold solve calls
	// the child infeasible at once, the warm one by a dual simplex that
	// starts from that negative right-hand side.
	f.Add([]byte{1, 3, 0, 2, 1, 1, 4, 1, 5, 2, 5, 10, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		p := fuzzLP(next)
		var s Solver
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6 && p.NumVars() > 1; step++ {
			b := next()
			child, cols, rows := fix(p, b%p.NumVars(), float64(b/8%2))
			warm, _, err := s.Resolve(child, cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(child)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("step %d: warm %v, cold %v", step, warm.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if math.Abs(warm.Objective-cold.Objective) > 1e-9*max(1, math.Abs(cold.Objective)) {
					t.Fatalf("step %d: warm objective %v, cold %v", step, warm.Objective, cold.Objective)
				}
				for i, c := range child.Constraints {
					lhs := 0.0
					for j, a := range c.Coeffs {
						lhs += a * warm.X[j]
					}
					if lhs > c.RHS+1e-9*max(1, math.Abs(c.RHS)) {
						t.Fatalf("step %d: warm x %v has row %d at %v > %v", step, warm.X, i, lhs, c.RHS)
					}
				}
				for j, v := range warm.X {
					if v < 0 {
						t.Fatalf("step %d: warm x[%d] = %v", step, j, v)
					}
				}
			}
			p = child
		}
	})
}
