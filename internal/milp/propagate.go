package milp

import "math"

// Bound propagation by min-activity reasoning. A row a·x <= b, every a >= 0,
// has minimum activity m = Σ a·lo over the box, which leaves each member
// only b − m of slack; rounded down, that bounds the member's upper bound,
// and a member whose coefficient exceeds the slack is fixed at 0. The
// tightened bounds hold at every 0/1 point of the box, so imposing them on
// the relaxation keeps the node bound valid — and a dive that fixes one
// binary sheds every column its rows force, not just the one.
//
// Only a raised lower bound raises a row's minimum activity, and
// propagation only ever lowers upper bounds, so nothing it does feeds back
// into another row: the root's box is one pass over every row, and a
// branching decision x_j = 1 is one pass over j's rows. A decision x_j = 0
// tightens nothing.

// box is one node's variable bounds.
type box struct {
	s       *search
	lo, up  []float64
	touched []int   // distinct variables whose bounds may deviate from the root box's, in first-touch order
	mark    []int64 // per variable: the generation that last touched it
	gen     int64   // current generation: one per reset
}

// newBox is the unit box.
func newBox(s *search) box {
	b := box{
		s:       s,
		gen:     1, // past every mark: the first touch of a variable lists it
		lo:      make([]float64, s.n),
		up:      make([]float64, s.n),
		touched: make([]int, 0, s.n),
		mark:    make([]int64, s.n),
	}
	for j := range b.up {
		b.up[j] = 1
	}
	return b
}

// rootBox propagates every row over the unit box: what every node starts
// from before its own branching decisions.
func rootBox(s *search) (*box, bool) {
	b := newBox(s)
	for ci := range s.p.LP.Constraints {
		if !b.propagateRow(ci) {
			return &b, false
		}
	}
	return &b, true
}

// reset makes the box a copy of root.
func (b *box) reset(root *box) {
	for _, j := range b.touched {
		b.lo[j], b.up[j] = root.lo[j], root.up[j]
	}
	b.touched = b.touched[:0]
	b.gen++
}

// branch imposes the decisions of chain newer than stop, then propagates
// the rows of every variable they set to 1. It visits those rows once all
// the decisions are in, so each visit sees its row's final minimum
// activity. false when a row's minimum activity exceeds its right-hand
// side: the box holds no 0/1 point.
func (b *box) branch(chain, stop *bchange) bool {
	for c := chain; c != stop; c = c.prev {
		b.touch(c.j)
		if c.lo > b.lo[c.j] {
			b.lo[c.j] = c.lo
		}
		if c.up < b.up[c.j] {
			b.up[c.j] = c.up
		}
	}
	cols := b.s.cols
	for c := chain; c != stop; c = c.prev {
		if c.lo > 0 {
			for _, ci := range cols.row[cols.start[c.j]:cols.start[c.j+1]] {
				if !b.propagateRow(int(ci)) {
					return false
				}
			}
		}
	}
	return true
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

// propagateRow applies row ci: with its minimum activity over the current
// box, each member's upper bound tightens to what the remaining slack
// allows, rounded down. Coefficients at or below zeroTol take no part.
//
//flex:hotpath
func (b *box) propagateRow(ci int) bool {
	cols, vals := b.s.rows.row(ci)
	rhs := b.s.p.LP.Constraints[ci].RHS
	vals = vals[:len(cols)]
	minAct := 0.0
	for k, j := range cols {
		if a := vals[k]; a > zeroTol {
			minAct += a * b.lo[j]
		}
	}
	if minAct > rhs+feasTol {
		return false
	}
	slack := rhs - minAct
	for k, j := range cols {
		if a := vals[k]; a > zeroTol {
			if newUp := math.Floor(b.lo[j] + slack/a + intEps); newUp < b.up[j]-intEps {
				b.up[j] = newUp
				b.touch(int(j))
			}
		}
	}
	return true
}
