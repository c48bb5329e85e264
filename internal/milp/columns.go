package milp

import (
	"cmp"
	"slices"
	"sort"
)

// Columns is a problem's constraint matrix by column in compressed form:
// variable j's non-zero coefficients are coef[start[j]:start[j+1]] and row
// holds their row numbers, in row order. Greedy 0/1 heuristics raise one
// variable at a time, and propagation visits the rows a decision x_j = 1
// moves: both need only the rows that variable appears in — on the
// placement ILP a handful of sixty. Build one per problem and share it: a
// Columns is read-only after NewColumns, so any number of Packings and
// workers may use it concurrently.
type Columns struct {
	p     *Problem
	start []int32
	row   []int32
	coef  []float64
}

// NewColumns indexes p's constraints by column. Coefficient slices shorter
// than the variable count are zero-extended, as everywhere else.
func NewColumns(p *Problem) *Columns {
	n := p.LP.NumVars()
	c := &Columns{p: p, start: make([]int32, n+1)}
	for i := range p.LP.Constraints {
		for j, a := range p.LP.Constraints[i].Coeffs {
			if nonZero(a) {
				c.start[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		c.start[j+1] += c.start[j]
	}
	c.row = make([]int32, c.start[n])
	c.coef = make([]float64, c.start[n])
	next := append([]int32(nil), c.start[:n]...)
	for i := range p.LP.Constraints {
		for j, a := range p.LP.Constraints[i].Coeffs {
			if nonZero(a) {
				c.row[next[j]] = int32(i)
				c.coef[next[j]] = a
				next[j]++
			}
		}
	}
	return c
}

// Problem returns the problem the view was built from.
func (c *Columns) Problem() *Problem { return c.p }

// packTol is how far a coefficient may exceed a row's remaining slack and
// still fit.
const packTol = 1e-9

// Packing builds a 0/1 vector for a packing problem one variable at a
// time, tracking the slack left in every row. X is the vector so far.
// Reset starts it over in the storage it has, so one Packing serves any
// number of vectors — each branch-and-bound worker keeps one for
// Options.Heuristic.
//
// A row whose slack has fallen below -packTol refuses every variable it
// spans — those with a zero coefficient included, since zero exceeds a
// negative slack too. Such rows are rare (a negative right-hand side, or a
// sum that rounded past its limit), so they are kept on a short list
// instead of being found by scanning.
type Packing struct {
	X     []float64
	c     *Columns
	slack []float64
	short []int32 // rows with slack below -packTol
	order []int   // RoundDownAndComplete's variable order, kept for the next call
}

// NewPacking starts from the zero vector: every row's slack is its
// right-hand side.
func (c *Columns) NewPacking() *Packing {
	pk := &Packing{X: make([]float64, c.p.LP.NumVars()), c: c, slack: make([]float64, len(c.p.LP.Constraints))}
	pk.Reset()
	return pk
}

// Reset returns the packing to the zero vector, every row's slack its
// right-hand side, in the storage it already has.
func (pk *Packing) Reset() {
	clear(pk.X)
	pk.short = pk.short[:0]
	cons := pk.c.p.LP.Constraints
	for i := range cons {
		pk.slack[i] = cons[i].RHS
		if 0 > pk.slack[i]+packTol {
			pk.short = append(pk.short, int32(i))
		}
	}
}

// Blocked reports whether some row is already over its limit.
func (pk *Packing) Blocked() bool { return len(pk.short) > 0 }

// Fits reports whether raising variable j to 1 keeps every row that spans
// j (j < len(Coeffs)) within its slack.
func (pk *Packing) Fits(j int) bool {
	cons := pk.c.p.LP.Constraints
	for _, i := range pk.short {
		if j < len(cons[i].Coeffs) {
			return false
		}
	}
	c := pk.c
	for k := c.start[j]; k < c.start[j+1]; k++ {
		if c.coef[k] > pk.slack[c.row[k]]+packTol {
			return false
		}
	}
	return true
}

// Take raises variable j to 1 and charges its coefficients to the rows.
func (pk *Packing) Take(j int) {
	pk.X[j] = 1
	c := pk.c
	for k := c.start[j]; k < c.start[j+1]; k++ {
		i := c.row[k]
		was := 0 > pk.slack[i]+packTol
		pk.slack[i] -= c.coef[k]
		if now := 0 > pk.slack[i]+packTol; now != was {
			pk.setShort(i, now)
		}
	}
}

// setShort adds row i to, or removes it from, the over-limit list.
func (pk *Packing) setShort(i int32, short bool) {
	if short {
		pk.short = append(pk.short, i)
		return
	}
	for k, r := range pk.short {
		if r == i {
			pk.short = append(pk.short[:k], pk.short[k+1:]...)
			return
		}
	}
}

// RoundDownAndComplete rounds the relaxation relaxed down to a 0/1 vector
// and completes it greedily, on a packing at the zero vector (new, or
// just Reset). It takes every variable the relaxation sets to 1 that
// fits, then every other variable it gives a positive value, then the
// rest, each pass in descending relaxed value with ties in the order of
// ties — a permutation of the variables. With every coefficient
// non-negative, rounding down stays feasible; the vector is still only a
// candidate, as every Options.Heuristic result is. After the first call it
// allocates nothing.
func (pk *Packing) RoundDownAndComplete(relaxed []float64, ties []int) {
	// A stable sort of ties by relaxation value, descending. Most values
	// are zero and keep their place; only the rest need sorting.
	byValue := func(ja, jb int) int { return cmp.Compare(relaxed[jb], relaxed[ja]) }
	order := pk.order[:0]
	for _, j := range ties {
		if relaxed[j] > 0 {
			order = append(order, j)
		}
	}
	slices.SortStableFunc(order, byValue)
	for _, j := range ties {
		if v := relaxed[j]; v >= 0 && v <= 0 { // exactly zero, either sign; not NaN
			order = append(order, j)
		}
	}
	neg := len(order)
	for _, j := range ties {
		if relaxed[j] < 0 {
			order = append(order, j)
		}
	}
	slices.SortStableFunc(order[neg:], byValue)
	pk.order = order

	for _, j := range order {
		if relaxed[j] > 0.999 && pk.Fits(j) {
			pk.Take(j)
		}
	}
	for _, j := range order {
		if !nonZero(pk.X[j]) && relaxed[j] > 1e-9 && pk.Fits(j) {
			pk.Take(j)
		}
	}
	for _, j := range order {
		if !nonZero(pk.X[j]) && pk.Fits(j) {
			pk.Take(j)
		}
	}
}

// GreedyBinaryIncumbent produces a feasible 0/1 assignment for p by
// setting variables to 1 in descending objective-coefficient order
// whenever all constraints stay satisfied. It is used to warm-start and as
// an ablation baseline for the placement ILP. A problem that fails
// Validate gets nil.
func GreedyBinaryIncumbent(p *Problem) []float64 {
	return NewColumns(p).GreedyBinaryIncumbent()
}

// GreedyBinaryIncumbent is the package-level function of the same name on
// an already-built view.
func (c *Columns) GreedyBinaryIncumbent() []float64 {
	if c.p.Validate() != nil {
		return nil
	}
	obj := c.p.LP.Objective
	order := make([]int, len(obj))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return obj[order[a]] > obj[order[b]] })
	pk := c.NewPacking()
	for _, j := range order {
		// Coefficients are non-negative, so slack only falls: a row over
		// its limit stays over it and refuses everything that is left.
		if obj[j] <= 0 || pk.Blocked() {
			continue
		}
		if pk.Fits(j) {
			pk.Take(j)
		}
	}
	return pk.X
}
