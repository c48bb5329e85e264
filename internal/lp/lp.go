// Package lp implements a dense primal simplex solver for packing linear
// programs, plus a dual simplex re-solve of a problem's child from the
// parent's final tableau. It is the foundation of the branch-and-bound
// solver in internal/milp, which together replace the commercial Gurobi
// solver the paper used for the Flex-Offline placement ILP (§IV-B, §V-A).
//
// Problems are stated as: maximize c·x subject to A·x <= b, x >= 0, where
// every row with b < 0 has non-negative coefficients — the relaxations of
// the 0/1 packing programs milp.Problem admits. A slack per row makes the
// standard form; when b >= 0 the slack basis is feasible and simplex
// starts from it, and a row with b < 0 cannot be met at any x >= 0, so
// the problem is infeasible. Either way no phase 1 is needed.
package lp

import (
	"fmt"
	"math"
)

// Constraint is one row Coeffs·x <= RHS. Coeffs shorter than the variable
// count are zero-extended.
type Constraint struct {
	Coeffs []float64
	RHS    float64
}

// Problem is the linear program maximize Objective·x subject to every
// constraint row, over n = len(Objective) variables that are all implicitly
// bounded below by zero.
type Problem struct {
	Objective   []float64
	Constraints []Constraint
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddConstraint appends the row coeffs·x <= rhs and returns its index.
func (p *Problem) AddConstraint(coeffs []float64, rhs float64) int {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, RHS: rhs})
	return len(p.Constraints) - 1
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of Solve. X and Objective are meaningful only when
// Status == Optimal.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	// Iterations is the total number of simplex pivots the solve spent —
	// for Resolve its warm attempt too — for solver observability and
	// performance accounting.
	Iterations int
}

const eps = 1e-9

// Solver runs primal simplex and keeps its tableau scratch
// (one flat arena plus row/basis headers) between calls, so repeated
// solves — every node relaxation of a branch-and-bound search — stop
// paying a fresh (m+1)×(cols+1) allocation each time. It also keeps the
// last solve's final tableau, which Resolve re-solves a child from.
//
// The zero value is ready to use. A Solver must not be shared between
// goroutines, but distinct Solvers are fully independent: Solve reads
// the Problem and never mutates it, so many Solvers may work on the
// same Problem concurrently. The Solver owns the solution too: Result.X
// is its buffer, valid until its next Solve or Resolve; copy it to keep
// it. (The package-level Solve uses a throwaway Solver, so what it
// returns is safe to retain.)
type Solver struct {
	arena []float64   // backing storage for the tableau, rows laid out contiguously
	rows  [][]float64 // row headers into arena
	basis []int       // basic-variable index per row
	tab   tableau     // the tableau of the solve in progress
	x     []float64   // the solution buffer Result.X points into

	// What Resolve needs of the last solve: whether its final tableau can be
	// re-solved from, and the right-hand sides it was solved for.
	warm bool
	rhs  []float64
	// Resolve's scratch: parent column → child column, child column →
	// parent column.
	newCol, src []int
}

// Solve runs primal simplex on p using a throwaway Solver, so the returned
// Result.X is the caller's to keep. Callers with many solves should reuse a
// Solver to amortize tableau and solution allocation.
func Solve(p *Problem) (Result, error) {
	var s Solver
	return s.Solve(p)
}

// Solve runs primal simplex on p from the slack basis, reusing the
// solver's scratch. A row with a negative right-hand side makes p
// infeasible without a pivot.
func (s *Solver) Solve(p *Problem) (Result, error) {
	n := p.NumVars()
	if n == 0 {
		return Result{}, fmt.Errorf("lp: problem has no variables")
	}
	s.warm = false
	infeasible := false
	for i, c := range p.Constraints {
		if len(c.Coeffs) > n {
			return Result{}, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), n)
		}
		infeasible = infeasible || c.RHS < 0
	}
	if infeasible {
		return Result{Status: Infeasible}, nil
	}
	t := s.newTableau(p)
	status, iters := t.runSimplex()
	if status != Optimal {
		return Result{Status: status, Iterations: iters}, nil
	}
	s.remember(p)
	x := s.solution()
	return Result{Status: Optimal, X: x, Objective: objective(p, x), Iterations: iters}, nil
}

// objective is c·x.
func objective(p *Problem, x []float64) float64 {
	obj := 0.0
	for i, c := range p.Objective {
		obj += c * x[i]
	}
	return obj
}

// tableau is a dense simplex tableau. Column layout: [0..n) decision
// vars, [n..n+m) one slack per row, then the RHS column. Row m is the
// objective row, which holds -c for the maximization: the basis is optimal
// once no entry is below -eps.
type tableau struct {
	p     *Problem
	n     int         // decision variables
	m     int         // constraints
	cols  int         // total variable columns (without RHS): n + m
	a     [][]float64 // (m+1) x (cols+1)
	basis []int       // basic variable per row
}

// newTableau builds p's tableau at the slack basis, every right-hand side
// non-negative.
func (s *Solver) newTableau(p *Problem) *tableau {
	n := p.NumVars()
	m := len(p.Constraints)
	s.tab = tableau{p: p, n: n, m: m, cols: n + m}
	t := &s.tab
	// Carve the (m+1)×(cols+1) tableau out of the solver's arena, growing
	// it only when the problem outgrows what previous solves needed.
	stride := t.cols + 1
	need := (m + 1) * stride
	if cap(s.arena) < need {
		s.arena = make([]float64, need)
	} else {
		s.arena = s.arena[:need]
		clear(s.arena)
	}
	if cap(s.rows) < m+1 {
		s.rows = make([][]float64, m+1)
	}
	t.a = s.rows[:m+1]
	for i := range t.a {
		t.a[i] = s.arena[i*stride : (i+1)*stride]
	}
	if cap(s.basis) < m {
		s.basis = make([]int, m)
	}
	t.basis = s.basis[:m]
	for i := range p.Constraints {
		c := &p.Constraints[i]
		row := t.a[i]
		copy(row, c.Coeffs)
		row[t.cols] = c.RHS
		row[n+i] = 1
		t.basis[i] = n + i
	}
	// The slack columns are zero in the objective row, so -c is already
	// expressed in terms of the slack basis.
	obj := t.a[m]
	for j, c := range p.Objective {
		obj[j] = -c
	}
	return t
}

// runSimplex pivots until optimal, unbounded, or the iteration cap,
// returning the outcome and the number of pivots performed.
//
//flex:hotpath
func (t *tableau) runSimplex() (Status, int) {
	price := t.a[t.m][:t.cols]
	rows, basis := t.a[:t.m], t.basis[:t.m]
	rhsCol := t.cols
	maxIter := 50 * (t.m + t.cols + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Entering column: Dantzig (most negative reduced cost); switch to
		// Bland (first negative) late to guarantee termination.
		enter := -1
		if iter < maxIter/2 {
			best := -eps
			for j, v := range price {
				if v < best {
					best = v
					enter = j
				}
			}
		} else {
			for j, v := range price {
				if v < -eps {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return Optimal, iter
		}
		// Leaving row: minimum ratio; Bland tie-break on basis index.
		leave, leaveBasis := -1, 0
		bestRatio := math.Inf(1)
		for i, r := range rows {
			aij := r[enter]
			if aij <= eps {
				continue
			}
			ratio := r[rhsCol] / aij
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave == -1 || basis[i] < leaveBasis)) {
				bestRatio = ratio
				leave, leaveBasis = i, basis[i]
			}
		}
		if leave == -1 {
			return Unbounded, iter
		}
		t.pivot(leave, enter)
	}
	return IterationLimit, maxIter
}

// pivot makes column enter basic in row leave.
//
//flex:hotpath
func (t *tableau) pivot(leave, enter int) {
	row := t.a[leave]
	inv := 1 / row[enter]
	for j := range row {
		row[j] *= inv
	}
	row[enter] = 1 // kill rounding noise
	for i, ri := range t.a {
		if i == leave {
			continue
		}
		f := ri[enter]
		if math.Abs(f) > eps {
			subScaled(ri, row, f)
		}
		ri[enter] = 0
	}
	t.basis[leave] = enter
}

// subScaled computes dst[j] -= f*src[j] over len(src) elements: one
// rounded multiply and one rounded subtract per element, in index order —
// what the plain indexed loop does, so results are bit-identical to it.
// No fused multiply-add: that would round once instead of twice. The
// kernel is packed SSE2 on amd64 and a Go loop elsewhere; the slice
// expression here is the one bounds check either needs.
//
//flex:hotpath
func subScaled(dst, src []float64, f float64) {
	subScaledKernel(dst[:len(src)], src, f)
}

// solution reads the decision variable values off the final tableau's
// basis into the solver's solution buffer, growing it only when the
// problem outgrows every earlier one.
func (s *Solver) solution() []float64 {
	t := &s.tab
	if cap(s.x) < t.n {
		s.x = make([]float64, t.n)
	}
	x := s.x[:t.n]
	clear(x)
	for i, b := range t.basis {
		if b < t.n {
			v := t.a[i][t.cols]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[b] = v
		}
	}
	return x
}
