// Package lp implements a dense two-phase primal simplex solver for linear
// programs, plus a dual simplex re-solve of a problem's child from the
// parent's final tableau. It is the foundation of the branch-and-bound MILP
// solver in internal/milp, which together replace the commercial Gurobi
// solver the paper used for the Flex-Offline placement ILP (§IV-B, §V-A).
//
// Problems are stated as: optimize c·x subject to A·x {<=,>=,=} b, x >= 0.
// The solver converts to standard form with slack/surplus/artificial
// variables and runs phase 1 (drive artificials out) then phase 2.
package lp

import (
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Constraint is one linear constraint: Coeffs·x Sense RHS. Coeffs shorter
// than the variable count are zero-extended.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program over n = len(Objective) variables, all
// implicitly bounded below by zero.
type Problem struct {
	Maximize    bool
	Objective   []float64
	Constraints []Constraint
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddConstraint appends a constraint and returns its index.
func (p *Problem) AddConstraint(coeffs []float64, s Sense, rhs float64) int {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Sense: s, RHS: rhs})
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
	// both phases, and for Resolve its warm attempt too — for solver
	// observability and performance accounting.
	Iterations int
}

const eps = 1e-9

// Solver runs two-phase primal simplex and keeps its tableau scratch
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

// Solve runs two-phase primal simplex on p using a throwaway Solver, so
// the returned Result.X is the caller's to keep. Callers with many solves
// should reuse a Solver to amortize tableau and solution allocation.
func Solve(p *Problem) (Result, error) {
	var s Solver
	return s.Solve(p)
}

// Solve runs two-phase primal simplex on p, reusing the solver's scratch.
func (s *Solver) Solve(p *Problem) (Result, error) {
	n := p.NumVars()
	if n == 0 {
		return Result{}, fmt.Errorf("lp: problem has no variables")
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > n {
			return Result{}, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coeffs), n)
		}
	}
	s.warm = false
	t := s.newTableau(p)
	iters := 0
	// Phase 1: minimize sum of artificials.
	if t.numArtificial > 0 {
		status, n := t.runSimplex(true)
		iters += n
		if status == IterationLimit {
			return Result{Status: IterationLimit, Iterations: iters}, nil
		}
		if t.phase1Objective() > 1e-6 {
			return Result{Status: Infeasible, Iterations: iters}, nil
		}
		t.driveOutArtificials()
	}
	// Phase 2.
	t.installPhase2Objective()
	status, n2 := t.runSimplex(false)
	iters += n2
	if status != Optimal {
		return Result{Status: status, Iterations: iters}, nil
	}
	s.remember(p, true)
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

// tableau is a dense simplex tableau. Column layout:
// [0..n) decision vars, [n..n+numSlack) slack/surplus, then artificials,
// then the RHS column. Row m is the objective row.
type tableau struct {
	p             *Problem
	n             int // decision variables
	m             int // constraints
	numSlack      int
	numArtificial int
	cols          int         // total variable columns (without RHS)
	a             [][]float64 // (m+1) x (cols+1)
	basis         []int       // basic variable per row
	artStart      int
}

// normalizedSense is the sense of constraint c once its row has been
// normalized to RHS >= 0 (rows with a negative RHS are negated, which
// flips LE and GE).
func normalizedSense(c *Constraint) Sense {
	if c.RHS < 0 {
		switch c.Sense {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return c.Sense
}

func (s *Solver) newTableau(p *Problem) *tableau {
	n := p.NumVars()
	m := len(p.Constraints)
	// Count slack and artificial columns for the RHS >= 0 normal form.
	numSlack, numArt := 0, 0
	for i := range p.Constraints {
		switch normalizedSense(&p.Constraints[i]) {
		case LE:
			numSlack++ // slack enters basis
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	s.tab = tableau{
		p: p, n: n, m: m,
		numSlack: numSlack, numArtificial: numArt,
		cols:     n + numSlack + numArt,
		artStart: n + numSlack,
	}
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
	slackIdx, artIdx := n, t.artStart
	for i := range p.Constraints {
		c := &p.Constraints[i]
		row := t.a[i]
		if c.RHS < 0 {
			for j, v := range c.Coeffs {
				row[j] = -v
			}
			row[t.cols] = -c.RHS
		} else {
			copy(row, c.Coeffs)
			row[t.cols] = c.RHS
		}
		switch normalizedSense(c) {
		case LE:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
	}
	// Phase-1 objective: minimize sum of artificials ⇔ maximize -sum.
	// Objective row holds reduced costs for maximization: we store -c in
	// the row and pivot until all entries >= -eps.
	if t.numArtificial > 0 {
		obj := t.a[m]
		for j := t.artStart; j < t.cols; j++ {
			obj[j] = 1 // minimize sum(artificials): row = c for min ⇒ use max(-sum) form below
		}
		// Convert to "maximize -sum(art)": row entries are -cj = -(−1)?  We
		// keep the convention: objective row r[j] = -c[j] for maximization.
		// For maximize -sum(art): c[art] = -1 ⇒ r[art] = 1 (already set).
		// Make the row consistent with the starting basis (artificials are
		// basic): subtract their rows.
		for i := 0; i < m; i++ {
			if t.basis[i] >= t.artStart {
				for j := 0; j <= t.cols; j++ {
					obj[j] -= t.a[i][j]
				}
			}
		}
	}
	return t
}

// phase1Objective returns sum of artificial variables at the current basis.
func (t *tableau) phase1Objective() float64 {
	sum := 0.0
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artStart {
			sum += t.a[i][t.cols]
		}
	}
	return sum
}

// driveOutArtificials pivots basic artificials out of the basis where
// possible (degenerate rows), so phase 2 never re-enters them.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Find a non-artificial column with a nonzero entry to pivot in.
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
		// If none exists the row is all-zero (redundant); leave it.
	}
}

// installPhase2Objective rewrites the objective row for the real objective,
// expressed in terms of the current (feasible) basis.
func (t *tableau) installPhase2Objective() {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	sign := 1.0
	if !t.p.Maximize {
		sign = -1.0 // minimize c·x ⇔ maximize (−c)·x
	}
	for j := 0; j < t.n; j++ {
		obj[j] = -sign * t.p.Objective[j] // row stores -c for maximization
	}
	// Eliminate basic columns from the objective row.
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if math.Abs(obj[b]) > eps {
			f := obj[b]
			for j := 0; j <= t.cols; j++ {
				obj[j] -= f * t.a[i][j]
			}
		}
	}
}

// runSimplex pivots until optimal, unbounded, or the iteration cap,
// returning the outcome and the number of pivots performed. In phase 1,
// artificial columns may leave but entering is allowed anywhere; in phase 2
// artificial columns are excluded from entering.
//
//flex:hotpath
func (t *tableau) runSimplex(phase1 bool) (Status, int) {
	maxCols := t.cols
	if !phase1 {
		maxCols = t.artStart
	}
	price := t.a[t.m][:maxCols]
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
