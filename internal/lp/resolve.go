package lp

import "math"

// Markers in Solver.newCol for parent columns the child does not keep.
const (
	removedCol   = -1 // a variable the child fixed: it may not enter the basis
	droppedSlack = -2 // the slack of a row the child dropped: it may enter, and must end basic
)

const (
	// harrisTol is how far below zero the Harris ratio test lets a reduced
	// cost go to buy a larger pivot element; primal simplex clears what is
	// left after the dual simplex.
	harrisTol = 1e-9
	// infeasTol is the most negative right-hand side the dual simplex calls
	// infeasible when its row has no negative entry; a row between -eps and
	// this is too close to call, and a cold solve decides it.
	infeasTol = 1e-6
	// checkTol is how far, relative to 1+|b|, the warm solution may exceed a
	// row's right-hand side.
	checkTol = 1e-7
)

// Resolve solves p as a child of the problem this Solver solved last, the
// parent: the parent with some columns removed (their variables fixed, their
// values folded into the right-hand sides), some rows removed and any
// right-hand side changed. Every coefficient and objective entry p keeps is
// the parent's. cols[k] is the parent column of p's column k and rows[i] the
// parent row of p's row i, both strictly increasing.
//
// The parent's final tableau qualifies when the parent ended Optimal: it
// has one slack column per row, and its slack block is B⁻¹. Resolve
// re-solves from it: it pivots each removed basic column out by a dual
// ratio test, sets the right-hand sides to B⁻¹b′, deletes the removed
// columns and rows in place, runs dual simplex under the Harris ratio test
// for at most 2m pivots, cleans up with primal simplex and checks the
// solution against p's rows. When the tableau does not qualify, the dual
// simplex stops undecided or the check fails, it solves p cold with Solve.
// warm reports whether the re-solve's answer stands; Iterations counts the
// pivots of both attempts.
func (s *Solver) Resolve(p *Problem, cols, rows []int) (r Result, warm bool, err error) {
	r, warm = s.resolve(p, cols, rows)
	if warm {
		return r, true, nil
	}
	cold, err := s.Solve(p)
	cold.Iterations += r.Iterations
	return cold, false, err
}

// resolve is Resolve's warm attempt; false means p must be solved cold, and
// the result then carries only the pivots spent.
func (s *Solver) resolve(p *Problem, cols, rows []int) (Result, bool) {
	if !s.warm || !s.fits(p, cols, rows) {
		return Result{}, false
	}
	s.warm = false // from here on the tableau is the child's or broken
	t := &s.tab
	iters, ok := t.pivotOut(s.newCol)
	if !ok {
		return Result{Iterations: iters}, false
	}
	// The slack block is B⁻¹, so B⁻¹b′ moves by slack column times change,
	// for the rows whose right-hand side changed. A dropped row's change
	// lands only on the row its slack is basic in, which goes with it.
	rhs := t.cols
	for i, pr := range rows {
		if d := p.Constraints[i].RHS - s.rhs[pr]; d > 0 || d < 0 {
			c := t.n + pr
			for _, row := range t.a {
				row[rhs] += d * row[c]
			}
		}
	}
	if !s.compact(p, len(cols), len(rows)) {
		return Result{Iterations: iters}, false
	}
	// A dual simplex that needs more pivots than a cold solve from the
	// slack basis would, about 2m, has stalled on a degenerate vertex.
	status, n := t.dualSimplex(2 * t.m)
	iters += n
	switch status {
	case Infeasible:
		return Result{Status: Infeasible, Iterations: iters}, true
	case Optimal:
	default:
		return Result{Iterations: iters}, false
	}
	status, n = t.runSimplex()
	iters += n
	if status != Optimal {
		return Result{Iterations: iters}, false
	}
	x := s.solution()
	if !t.satisfies(p, x) {
		return Result{Iterations: iters}, false
	}
	s.remember(p)
	return Result{Status: Optimal, X: x, Objective: objective(p, x), Iterations: iters}, true
}

// remember records p's right-hand sides, for a later Resolve to re-solve
// from the final tableau.
func (s *Solver) remember(p *Problem) {
	s.rhs = s.rhs[:0]
	for i := range p.Constraints {
		s.rhs = append(s.rhs, p.Constraints[i].RHS)
	}
	s.warm = true
}

// fits checks Resolve's contract on p, cols and rows against the parent's
// tableau and fills s.newCol: each parent column's child column, or
// removedCol / droppedSlack.
func (s *Solver) fits(p *Problem, cols, rows []int) bool {
	t := &s.tab
	n := len(cols)
	if n == 0 || n != p.NumVars() || len(rows) != len(p.Constraints) {
		return false
	}
	if cap(s.newCol) < t.cols {
		s.newCol = make([]int, t.cols)
	}
	newCol := s.newCol[:t.cols]
	for c := range newCol {
		newCol[c] = removedCol
	}
	prev := -1
	for k, c := range cols {
		if c <= prev || c >= t.n {
			return false
		}
		newCol[c], prev = k, c
	}
	for c := t.n; c < t.cols; c++ {
		newCol[c] = droppedSlack
	}
	prev = -1
	for i, r := range rows {
		c := &p.Constraints[i]
		if r <= prev || r >= t.m || len(c.Coeffs) > n {
			return false
		}
		newCol[t.n+r], prev = n+i, r
	}
	s.newCol = newCol
	return true
}

// pivotOut makes every removed column non-basic. Each leaves on its own row
// by a dual ratio test over that row's positive entries, or its negative
// ones if it has none, so no kept column's reduced cost turns negative
// beyond the Harris tolerance. false when a row has no column to take its
// place.
func (t *tableau) pivotOut(newCol []int) (pivots int, ok bool) {
	for r := 0; r < t.m; r++ {
		if newCol[t.basis[r]] != removedCol {
			continue
		}
		q := t.dualEnter(r, 1, newCol)
		if q < 0 {
			q = t.dualEnter(r, -1, newCol)
		}
		if q < 0 {
			return pivots, false
		}
		t.pivot(r, q)
		pivots++
	}
	return pivots, true
}

// compact deletes, in place, the removed columns and every row whose basic
// variable is a dropped row's slack — that row is the dropped constraint
// itself, all zeros over the kept columns — leaving the child's tableau: n
// variable columns, m slack columns and the right-hand side, m rows and the
// objective row. Both the kept columns and the kept rows keep their order,
// so every cell moves to an arena index no larger than its own and the copy
// never overwrites a cell it has yet to read. false when a dropped row's
// slack is not basic.
func (s *Solver) compact(p *Problem, n, m int) bool {
	t := &s.tab
	cols := n + m
	if cap(s.src) < cols+1 {
		s.src = make([]int, cols+1)
	}
	src := s.src[:cols+1]
	for c, k := range s.newCol {
		if k >= 0 {
			src[k] = c
		}
	}
	src[cols] = t.cols
	stride, nstride := t.cols+1, cols+1
	kept := 0
	for r := 0; r <= t.m; r++ {
		if r < t.m {
			k := s.newCol[t.basis[r]]
			if k < 0 {
				continue // a dropped row's slack; pivotOut left no removed column basic
			}
			if kept == m {
				return false
			}
			t.basis[kept] = k
		}
		from := s.arena[r*stride : r*stride+stride]
		to := s.arena[kept*nstride : kept*nstride+nstride]
		for j, c := range src {
			to[j] = from[c]
		}
		kept++
	}
	if kept != m+1 {
		return false
	}
	s.arena = s.arena[:kept*nstride]
	t.a = s.rows[:kept]
	for i := range t.a {
		t.a[i] = s.arena[i*nstride : (i+1)*nstride]
	}
	t.basis = s.basis[:m]
	t.p, t.n, t.m, t.cols = p, n, m, cols
	return true
}

// dualSimplex pivots until no right-hand side is below -eps: the row with
// the most negative one leaves and dualEnter picks the column that enters,
// so the reduced costs stay non-negative within the Harris tolerance.
// Infeasible when the leaving row has no negative entry and its right-hand
// side is below -infeasTol; IterationLimit when it is above that, too close
// to call, or when maxIter pivots were not enough.
//
//flex:hotpath
func (t *tableau) dualSimplex(maxIter int) (Status, int) {
	rhs := t.cols
	rows := t.a[:t.m]
	for iter := 0; iter < maxIter; iter++ {
		leave, worst := -1, -eps
		for i, r := range rows {
			if v := r[rhs]; v < worst {
				leave, worst = i, v
			}
		}
		if leave < 0 {
			return Optimal, iter
		}
		enter := t.dualEnter(leave, -1, nil)
		if enter < 0 {
			if worst < -infeasTol {
				return Infeasible, iter
			}
			return IterationLimit, iter
		}
		t.pivot(leave, enter)
	}
	return IterationLimit, maxIter
}

// dualEnter picks the column to enter on row r by the Harris two-pass
// ratio test over the columns whose entry has the given sign: pass one
// finds the loosest ratio of reduced cost to |entry| that keeps every
// candidate's reduced cost above -harrisTol, pass two takes the largest
// |entry| among the candidates whose ratio is within it. On degenerate
// rows — many ratios at zero — that is the best-conditioned pivot, where a
// plain minimum would take the first tiny one. Columns newCol marks
// removedCol never enter; newCol may be nil. -1 when no column qualifies.
//
//flex:hotpath
func (t *tableau) dualEnter(r int, sign float64, newCol []int) int {
	row := t.a[r][:t.cols]
	price := t.a[t.m][:t.cols]
	bound := math.Inf(1) // ratios are compared as d <= bound·a: a divide only where the bound moves
	for k, v := range row {
		a := sign * v
		if a <= eps || (newCol != nil && newCol[k] == removedCol) {
			continue
		}
		if d := max(price[k], 0) + harrisTol; d < bound*a {
			bound = d / a
		}
	}
	enter, best := -1, 0.0
	for k, v := range row {
		a := sign * v
		if a <= best || (newCol != nil && newCol[k] == removedCol) {
			continue
		}
		if max(price[k], 0) <= bound*a {
			enter, best = k, a
		}
	}
	if best <= eps {
		return -1
	}
	return enter
}

// satisfies reports whether x meets every row of p within checkTol. Only
// basic variables are non-zero, so each row sums over those alone.
func (t *tableau) satisfies(p *Problem, x []float64) bool {
	for i := range p.Constraints {
		c := &p.Constraints[i]
		lhs := 0.0
		for _, j := range t.basis {
			if j < t.n && j < len(c.Coeffs) {
				lhs += c.Coeffs[j] * x[j]
			}
		}
		if lhs > c.RHS+checkTol*(1+math.Abs(c.RHS)) {
			return false
		}
	}
	for _, v := range x {
		if v < 0 {
			return false
		}
	}
	return true
}
