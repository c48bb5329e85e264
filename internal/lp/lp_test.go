package lp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) Result {
	t.Helper()
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v, want optimal", r.Status)
	}
	return r
}

func TestSolveSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4; x + 3y <= 6 → x=4, y=0, obj=12.
	p := &Problem{Objective: []float64{3, 2}}
	p.AddConstraint([]float64{1, 1}, 4)
	p.AddConstraint([]float64{1, 3}, 6)
	r := solveOK(t, p)
	if math.Abs(r.Objective-12) > 1e-6 {
		t.Fatalf("objective = %v, want 12", r.Objective)
	}
	if math.Abs(r.X[0]-4) > 1e-6 || math.Abs(r.X[1]) > 1e-6 {
		t.Fatalf("x = %v, want [4 0]", r.X)
	}
}

func TestSolveClassicLP(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y <= 24; x + 2y <= 6 → x=3, y=1.5, obj=21.
	p := &Problem{Objective: []float64{5, 4}}
	p.AddConstraint([]float64{6, 4}, 24)
	p.AddConstraint([]float64{1, 2}, 6)
	r := solveOK(t, p)
	if math.Abs(r.Objective-21) > 1e-6 {
		t.Fatalf("objective = %v, want 21", r.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x + y <= -1 has non-negative coefficients: no x >= 0 meets it, and
	// Solve says so without a pivot.
	p := &Problem{Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, -1)
	p.AddConstraint([]float64{1}, 3)
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible || r.Iterations != 0 {
		t.Fatalf("status = %v after %d pivots, want infeasible after none", r.Status, r.Iterations)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := &Problem{Objective: []float64{1, 0}}
	p.AddConstraint([]float64{0, 1}, 5)
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// A negative right-hand side, even a tiny one on a row whose every
	// coefficient is zero, is infeasible; a zero one is not.
	for _, rhs := range []float64{-2, -1e-12, 0} {
		p := &Problem{Objective: []float64{1}}
		p.AddConstraint([]float64{0}, rhs)
		p.AddConstraint([]float64{1}, 7)
		r, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want := Infeasible
		if rhs == 0 {
			want = Optimal
		}
		if r.Status != want {
			t.Fatalf("rhs %v: status = %v, want %v", rhs, r.Status, want)
		}
	}
}

func TestSolveDegenerateTies(t *testing.T) {
	// Degenerate problem with redundant constraints; Bland tie-breaking
	// must still terminate at the optimum.
	p := &Problem{Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 0}, 1)
	p.AddConstraint([]float64{1, 0}, 1)
	p.AddConstraint([]float64{0, 1}, 1)
	p.AddConstraint([]float64{1, 1}, 2)
	r := solveOK(t, p)
	if math.Abs(r.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", r.Objective)
	}
}

func TestSolveNoVariables(t *testing.T) {
	if _, err := Solve(&Problem{}); err == nil {
		t.Fatal("expected error for empty problem")
	}
}

func TestSolveTooManyCoeffs(t *testing.T) {
	p := &Problem{Objective: []float64{1}}
	p.AddConstraint([]float64{1, 2}, 1)
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for coefficient overflow")
	}
}

func TestShortCoeffsZeroExtended(t *testing.T) {
	// Constraint touching only x0 in a 3-var problem.
	p := &Problem{Objective: []float64{1, 1, 1}}
	p.AddConstraint([]float64{1}, 2)
	p.AddConstraint([]float64{1, 1, 1}, 5)
	r := solveOK(t, p)
	if math.Abs(r.Objective-5) > 1e-6 {
		t.Fatalf("objective = %v, want 5", r.Objective)
	}
	if r.X[0] > 2+1e-6 {
		t.Fatalf("x0 = %v violates its bound", r.X[0])
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration-limit"} {
		if s.String() != want {
			t.Errorf("Status %d = %q, want %q", s, s.String(), want)
		}
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status string")
	}
}

// Property: for random bounded knapsack-style LPs, the solution respects
// every constraint and every variable bound.
func TestSolutionFeasibilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	f := func() bool {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		p := &Problem{Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = rng.Float64() * 10
		}
		for i := 0; i < m; i++ {
			coeffs := make([]float64, n)
			for j := range coeffs {
				coeffs[j] = rng.Float64() * 5
			}
			p.AddConstraint(coeffs, 1+rng.Float64()*20)
		}
		for j := 0; j < n; j++ { // bound each var so it's never unbounded
			coeffs := make([]float64, n)
			coeffs[j] = 1
			p.AddConstraint(coeffs, 10)
		}
		r, err := Solve(p)
		if err != nil || r.Status != Optimal {
			return false
		}
		for _, c := range p.Constraints {
			lhs := 0.0
			for j, a := range c.Coeffs {
				lhs += a * r.X[j]
			}
			if lhs > c.RHS+1e-6 {
				return false
			}
		}
		for _, x := range r.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: LP optimum is invariant under constraint order permutation.
func TestOrderInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 3
		p := &Problem{Objective: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
		for i := 0; i < 4; i++ {
			p.AddConstraint([]float64{rng.Float64(), rng.Float64(), rng.Float64()}, 1+rng.Float64()*5)
		}
		for j := 0; j < n; j++ {
			coeffs := make([]float64, n)
			coeffs[j] = 1
			p.AddConstraint(coeffs, 4)
		}
		// A shallow copy: the shuffle moves whole constraints and never
		// touches a coefficient.
		q := &Problem{Objective: p.Objective, Constraints: slices.Clone(p.Constraints)}
		rng.Shuffle(len(q.Constraints), func(i, j int) {
			q.Constraints[i], q.Constraints[j] = q.Constraints[j], q.Constraints[i]
		})
		r1, _ := Solve(p)
		r2, _ := Solve(q)
		if r1.Status != Optimal || r2.Status != Optimal {
			t.Fatalf("trial %d: statuses %v %v", trial, r1.Status, r2.Status)
		}
		if math.Abs(r1.Objective-r2.Objective) > 1e-6 {
			t.Fatalf("trial %d: objectives differ: %v vs %v", trial, r1.Objective, r2.Objective)
		}
	}
}

func TestSolveZeroRHSDegenerate(t *testing.T) {
	// x <= 0 forces x = 0; the optimum is on a degenerate vertex.
	p := &Problem{Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 0}, 0)
	p.AddConstraint([]float64{0, 1}, 2)
	r := solveOK(t, p)
	if math.Abs(r.Objective-2) > 1e-6 || r.X[0] > 1e-9 {
		t.Fatalf("objective = %v x = %v", r.Objective, r.X)
	}
}

func TestSolveLargeDense(t *testing.T) {
	// A bigger assignment-like LP to exercise pivoting performance and
	// stability: 60 vars, 40 constraints.
	rng := rand.New(rand.NewSource(8))
	n, m := 60, 40
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = 1 + rng.Float64()
	}
	for i := 0; i < m; i++ {
		coeffs := make([]float64, n)
		for j := range coeffs {
			coeffs[j] = rng.Float64()
		}
		p.AddConstraint(coeffs, 5+rng.Float64()*10)
	}
	for j := 0; j < n; j++ {
		c := make([]float64, n)
		c[j] = 1
		p.AddConstraint(c, 1)
	}
	r := solveOK(t, p)
	if r.Objective <= 0 {
		t.Fatalf("objective = %v", r.Objective)
	}
	for _, c := range p.Constraints {
		lhs := 0.0
		for j, a := range c.Coeffs {
			lhs += a * r.X[j]
		}
		if lhs > c.RHS+1e-6 {
			t.Fatal("constraint violated")
		}
	}
}
