package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomLP builds a bounded feasible LP: maximize a positive objective
// under per-variable caps plus a few coupling rows.
func randomLP(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = 1 + rng.Float64()*9
		unit := make([]float64, n)
		unit[j] = 1
		p.AddConstraint(unit, 1+rng.Float64()*4)
	}
	for k := 0; k < 3; k++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64()
		}
		p.AddConstraint(row, float64(n)/2)
	}
	return p
}

// TestSolverReuseMatchesFresh: one Solver reused across many problems of
// varying shapes must return exactly what a fresh solve returns — the
// arena reuse cannot leak state between calls.
func TestSolverReuseMatchesFresh(t *testing.T) {
	var s Solver
	for i := 0; i < 25; i++ {
		p := randomLP(int64(i), 3+i%7)
		reused, err1 := s.Solve(p)
		fresh, err2 := Solve(p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: reused err=%v, fresh err=%v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if reused.Status != fresh.Status {
			t.Fatalf("iter %d: status %v vs %v", i, reused.Status, fresh.Status)
		}
		if math.Abs(reused.Objective-fresh.Objective) > 1e-9 {
			t.Fatalf("iter %d: objective %v vs %v", i, reused.Objective, fresh.Objective)
		}
		for j := range fresh.X {
			if math.Abs(reused.X[j]-fresh.X[j]) > 1e-9 {
				t.Fatalf("iter %d: x[%d] %v vs %v", i, j, reused.X[j], fresh.X[j])
			}
		}
	}
}

// TestSolverResultsIndependent: the package-level Solve's Result.X is the
// caller's — a later solve cannot corrupt an earlier result — while a
// reused Solver owns its Result.X and hands the same buffer back on its
// next call, with that call's values.
func TestSolverResultsIndependent(t *testing.T) {
	p1, p2 := randomLP(1, 5), randomLP(2, 5)
	r1, err := Solve(p1)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), r1.X...)
	if _, err := Solve(p2); err != nil {
		t.Fatal(err)
	}
	for j := range saved {
		if r1.X[j] != saved[j] {
			t.Fatalf("earlier result mutated at x[%d]", j)
		}
	}

	var s Solver
	a, err := s.Solve(p1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if &a.X[0] != &b.X[0] {
		t.Error("the solver allocated a second solution buffer")
	}
	want, err := Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want.X {
		if b.X[j] != want.X[j] {
			t.Fatalf("reused buffer x[%d] = %v, a throwaway solver's %v", j, b.X[j], want.X[j])
		}
	}
}

// TestDistinctSolversConcurrent: distinct Solver values are independent
// and safe to run concurrently (the milp workers rely on this).
func TestDistinctSolversConcurrent(t *testing.T) {
	want := make([]Result, 8)
	for g := range want {
		r, err := Solve(randomLP(int64(g), 6))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = r
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Solver
			for i := 0; i < 20; i++ {
				r, err := s.Solve(randomLP(int64(g), 6))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if math.Abs(r.Objective-want[g].Objective) > 1e-9 {
					t.Errorf("goroutine %d iter %d: objective %v, want %v", g, i, r.Objective, want[g].Objective)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
