package milp

import (
	"math"

	"flex/internal/lp"
)

// Bound propagation by min-activity reasoning. A row "a·x <= b" (GE rows
// mirrored through their sign, EQ rows both ways) with minimum activity m
// over the box leaves each member only b − m of slack, which bounds it;
// rounded to integrality, that tightens integer variables. The tightened
// bounds hold at every integer-feasible point of the box, so imposing them
// on the relaxation keeps the node bound valid — and a dive that fixes one
// binary sheds every column its rows force, not just the one.
//
// A row needs a visit only when its minimum activity rose: when a member
// with a positive coefficient (in "<=" form) gained lower bound, or one
// with a negative coefficient lost upper bound. The box keeps a queue of
// such rows, and a tightened variable queues just its rows of the matching
// kind. Propagation runs until the queue is empty — the greatest box no row
// can tighten, whatever the visiting order — or until a node has visited
// maxVisitsPerRow times as many rows as the problem has, which stops two
// general-integer rows from feeding each other one unit per visit.

// maxVisitsPerRow bounds one propagation's row visits, per propagated row.
const maxVisitsPerRow = 4

// watchLists is, per column, the rows to queue when its bounds tighten:
// lo lists the rows whose minimum activity rises with the column's lower
// bound, up those whose minimum activity rises as its upper bound falls.
// Rows are in row order; skipped rows are left out.
type watchLists struct {
	start [2][]int32 // 0: lower bound rises, 1: upper bound falls
	row   [2][]int32
}

func newWatchLists(p *Problem, rows *rowIndex, skip []bool) watchLists {
	// each calls visit for every (list, column, row) entry, in row order.
	each := func(visit func(kind int, j, ci int32)) {
		for ci := range p.LP.Constraints {
			if skip[ci] {
				continue
			}
			sense := p.LP.Constraints[ci].Sense
			cols, vals := rows.row(ci)
			for k, j := range cols {
				a := vals[k]
				if a <= zeroTol && a >= -zeroTol {
					continue // propagateRow ignores the term
				}
				pos := (a > 0) == (sense != lp.GE) // positive in "<=" form
				if pos || sense == lp.EQ {
					visit(0, j, int32(ci))
				}
				if !pos || sense == lp.EQ {
					visit(1, j, int32(ci))
				}
			}
		}
	}
	n := p.LP.NumVars()
	var w watchLists
	var next [2][]int32
	for k := range w.start {
		w.start[k] = make([]int32, n+1)
	}
	each(func(kind int, j, _ int32) { w.start[kind][j+1]++ })
	for k := range w.start {
		for j := 0; j < n; j++ {
			w.start[k][j+1] += w.start[k][j]
		}
		w.row[k] = make([]int32, w.start[k][n])
		next[k] = append([]int32(nil), w.start[k][:n]...)
	}
	each(func(kind int, j, ci int32) {
		w.row[kind][next[kind][j]] = ci
		next[kind][j]++
	})
	return w
}

// of returns column j's rows of one kind (0: lower bound, 1: upper bound).
func (w *watchLists) of(kind int, j int32) []int32 {
	return w.row[kind][w.start[kind][j]:w.start[kind][j+1]]
}

// box is one node's variable bounds and the queue of rows that may still
// tighten them.
type box struct {
	s       *search
	lo, up  []float64
	touched []int   // distinct variables whose bounds may deviate from [0, up0], in first-touch order
	mark    []int64 // per variable: the generation that last touched it
	gen     int64   // current generation: one per reset
	queue   []int32 // ring of rows waiting for a visit, queue[head] first
	head, n int
	queued  []bool // per row: in the ring
}

// newBox is [0, up0] with an empty queue.
func newBox(s *search) box {
	nr := len(s.p.LP.Constraints)
	b := box{
		s:       s,
		gen:     1, // past every mark: the first touch of a variable lists it
		lo:      make([]float64, s.n),
		up:      make([]float64, s.n),
		touched: make([]int, 0, s.n),
		mark:    make([]int64, s.n),
		queue:   make([]int32, nr),
		queued:  make([]bool, nr),
	}
	copy(b.up, s.up0)
	return b
}

// rootBox propagates every row over the box [0, up0]: what every node
// starts from before its own branching decisions.
func rootBox(s *search) (*box, bool) {
	b := newBox(s)
	for ci, skipped := range s.skip {
		if !skipped {
			b.push(int32(ci))
		}
	}
	ok, _ := b.propagate()
	return &b, ok
}

// reset makes the box a copy of root, touched list included.
func (b *box) reset(root *box) {
	for _, j := range b.touched {
		b.lo[j], b.up[j] = root.lo[j], root.up[j]
	}
	b.touched = b.touched[:0]
	b.gen++
	for _, j := range root.touched {
		b.touch(j)
	}
}

// branch imposes one branching decision and queues the rows it moves.
func (b *box) branch(c *bchange) {
	b.touch(c.j)
	if c.lo > b.lo[c.j] {
		b.raiseLo(int32(c.j), c.lo)
	}
	if c.up < b.up[c.j] {
		b.lowerUp(int32(c.j), c.up)
	}
}

// touch records that variable j's bounds may have moved since the last
// reset. Each variable is listed once, so the list never outgrows the n
// entries it was made with.
func (b *box) touch(j int) {
	if b.mark[j] != b.gen {
		b.mark[j] = b.gen
		k := len(b.touched)
		b.touched = b.touched[:k+1]
		b.touched[k] = j
	}
}

func (b *box) raiseLo(j int32, v float64) {
	b.lo[j] = v
	b.touch(int(j))
	for _, ci := range b.s.watch.of(0, j) {
		b.push(ci)
	}
}

func (b *box) lowerUp(j int32, v float64) {
	b.up[j] = v
	b.touch(int(j))
	for _, ci := range b.s.watch.of(1, j) {
		b.push(ci)
	}
}

// push queues row ci unless it is already waiting. A row is in the ring
// at most once, so the ring never holds more than every row.
func (b *box) push(ci int32) {
	if b.queued[ci] {
		return
	}
	b.queued[ci] = true
	i := b.head + b.n
	if i >= len(b.queue) {
		i -= len(b.queue)
	}
	b.queue[i] = ci
	b.n++
}

// propagate visits queued rows until none is left (settled) or the visit
// limit is reached, and empties the queue either way. ok is false when a
// row's minimum activity exceeds its right-hand side: the box holds no
// integer point.
func (b *box) propagate() (ok, settled bool) {
	s := b.s
	limit := maxVisitsPerRow * len(s.p.LP.Constraints)
	for visits := 0; b.n > 0; visits++ {
		if visits == limit {
			b.drain()
			return true, false
		}
		ci := b.pop()
		c := &s.p.LP.Constraints[ci]
		cols, vals := s.rows.row(int(ci))
		// lhs <= rhs reasoning covers LE and EQ rows; lhs >= rhs (GE and
		// EQ) is the same row mirrored through sign.
		if (c.Sense == lp.LE || c.Sense == lp.EQ) && !b.propagateRow(cols, vals, c.RHS, 1) ||
			(c.Sense == lp.GE || c.Sense == lp.EQ) && !b.propagateRow(cols, vals, -c.RHS, -1) {
			b.drain()
			return false, false
		}
	}
	return true, true
}

// pop takes the row at the head of the queue.
func (b *box) pop() int32 {
	ci := b.queue[b.head]
	b.queued[ci] = false
	if b.head++; b.head == len(b.queue) {
		b.head = 0
	}
	b.n--
	return ci
}

// drain empties the queue without visiting the rows.
func (b *box) drain() {
	for b.n > 0 {
		b.pop()
	}
}

// propagateRow applies one row, given as its non-zero columns and their
// coefficients, in "sign*coeffs · x <= rhs" form: with the row's minimum
// activity over the current box, each integer member's bound tightens to
// what the remaining slack allows, rounded to integrality, and the rows
// that tightening moves are queued.
//
//flex:hotpath
func (b *box) propagateRow(cols []int32, vals []float64, rhs, sign float64) bool {
	integer := b.s.p.Integer
	vals = vals[:len(cols)]
	minAct := 0.0
	for k, j := range cols {
		a := sign * vals[k]
		if a > zeroTol {
			minAct += a * b.lo[j]
		} else if a < -zeroTol {
			u := b.up[j]
			if math.IsInf(u, 1) {
				return true // an unbounded term: no finite activity floor
			}
			minAct += a * u
		}
	}
	if minAct > rhs+feasTol {
		return false
	}
	slack := rhs - minAct
	for k, j := range cols {
		if !integer[j] {
			continue
		}
		a := sign * vals[k]
		if a > zeroTol {
			newUp := math.Floor(b.lo[j] + slack/a + intEps)
			if newUp < b.up[j]-intEps {
				b.lowerUp(j, newUp)
			}
		} else if a < -zeroTol {
			if math.IsInf(b.up[j], 1) {
				continue
			}
			newLo := math.Ceil(b.up[j] + slack/a - intEps)
			if newLo > b.lo[j]+intEps {
				b.raiseLo(j, newLo)
			}
		}
	}
	return true
}
