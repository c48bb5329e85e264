package milp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"flex/internal/lp"
)

// Dense references: the full-row scans the row and column indexes
// replaced, kept as what the indexed code must reproduce exactly.

// referenceFeasible is Problem.feasible over dense rows.
func referenceFeasible(p *Problem, x []float64) bool {
	for _, v := range x {
		if v < -intEps || v > 1+intEps || math.Abs(v-math.Round(v)) > intEps {
			return false
		}
	}
	for _, c := range p.LP.Constraints {
		lhs := 0.0
		for j, a := range c.Coeffs {
			lhs += a * x[j]
		}
		if lhs > c.RHS+feasTol {
			return false
		}
	}
	return true
}

// referenceBox is a node's bound state under the dense propagation: every
// row in row order, swept until a sweep changes nothing.
type referenceBox struct {
	p      *Problem
	lo, up []float64
}

func (b *referenceBox) propagate() bool {
	for {
		changed := false
		for _, c := range b.p.LP.Constraints {
			if !b.propagateRow(c.Coeffs, c.RHS, &changed) {
				return false
			}
		}
		if !changed {
			return true
		}
	}
}

func (b *referenceBox) propagateRow(coeffs []float64, rhs float64, changed *bool) bool {
	minAct := 0.0
	for j, a := range coeffs {
		if a > zeroTol {
			minAct += a * b.lo[j]
		}
	}
	if minAct > rhs+feasTol {
		return false
	}
	slack := rhs - minAct
	for j, a := range coeffs {
		if a > zeroTol {
			newUp := math.Floor(b.lo[j] + slack/a + intEps)
			if newUp < b.up[j]-intEps {
				b.up[j] = newUp
				*changed = true
			}
		}
	}
	return true
}

// referenceGreedy is GreedyBinaryIncumbent over dense rows.
func referenceGreedy(p *Problem) []float64 {
	if p.Validate() != nil {
		return nil
	}
	n := p.LP.NumVars()
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	obj := p.LP.Objective
	sort.Slice(order, func(a, b int) bool { return obj[order[a]] > obj[order[b]] })
	x := make([]float64, n)
	slack := make([]float64, len(p.LP.Constraints))
	for i, c := range p.LP.Constraints {
		slack[i] = c.RHS
	}
	for _, j := range order {
		if obj[j] <= 0 {
			continue
		}
		ok := true
		for i, c := range p.LP.Constraints {
			var a float64
			if j < len(c.Coeffs) {
				a = c.Coeffs[j]
			}
			if a > slack[i]+1e-9 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		x[j] = 1
		for i, c := range p.LP.Constraints {
			if j < len(c.Coeffs) {
				slack[i] -= c.Coeffs[j]
			}
		}
	}
	return x
}

// placementShaped builds an ILP with the structure of the Flex-Offline
// batch problem — nd deployments × 6 UPS combinations of a 4N/3 room:
// one assignment row per deployment, which bounds its variables, normal
// and failover capacity rows per UPS, space per combination and one
// diversity row — with seeded random demand sized so capacity binds.
func placementShaped(seed int64, nd int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	combos := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	nc := len(combos)
	n := nd * nc
	p := &Problem{LP: lp.Problem{Objective: make([]float64, n)}}
	pow, capPow, racks := make([]float64, nd), make([]float64, nd), make([]float64, nd)
	for d := range pow {
		racks[d] = float64(5 + rng.Intn(16))
		pow[d] = racks[d] * (0.010 + 0.012*rng.Float64())
		capPow[d] = pow[d] * (0.6 + 0.4*float64(rng.Intn(2)))
		for c := 0; c < nc; c++ {
			p.LP.Objective[d*nc+c] = pow[d]
		}
	}
	for d := 0; d < nd; d++ {
		c := make([]float64, n)
		for ci := 0; ci < nc; ci++ {
			c[d*nc+ci] = 1
		}
		p.LP.AddConstraint(c, 1)
	}
	in := func(cb [2]int, u int) bool { return cb[0] == u || cb[1] == u }
	for u := 0; u < 4; u++ {
		c := make([]float64, n)
		for d := 0; d < nd; d++ {
			for ci, cb := range combos {
				if in(cb, u) {
					c[d*nc+ci] = 0.5 * pow[d]
				}
			}
		}
		p.LP.AddConstraint(c, 1.2)
	}
	for f := 0; f < 4; f++ {
		for u := 0; u < 4; u++ {
			if u == f {
				continue
			}
			c := make([]float64, n)
			for d := 0; d < nd; d++ {
				for ci, cb := range combos {
					if in(cb, u) {
						w := 0.5
						if in(cb, f) {
							w = 1
						}
						c[d*nc+ci] = w * capPow[d]
					}
				}
			}
			p.LP.AddConstraint(c, 1.6)
		}
	}
	for ci := range combos {
		c := make([]float64, n)
		for d := 0; d < nd; d++ {
			c[d*nc+ci] = racks[d]
		}
		p.LP.AddConstraint(c, 90)
	}
	c := make([]float64, n)
	for d := 0; d < nd; d++ {
		for ci := 0; ci < nc; ci++ {
			c[d*nc+ci] = capPow[d]
		}
	}
	p.LP.AddConstraint(c, 4.5)
	return p
}

// completionHeuristic is the Flex-Offline batch heuristic on p: round the
// relaxation down and complete it in the worker's Packing, offering
// variables of equal relaxation value in descending objective order.
func completionHeuristic(p *Problem) func([]float64, *Packing) bool {
	obj := p.LP.Objective
	ties := make([]int, len(obj))
	for j := range ties {
		ties[j] = j
	}
	sort.SliceStable(ties, func(a, b int) bool { return obj[ties[a]] > obj[ties[b]] })
	return func(relaxed []float64, pk *Packing) bool {
		pk.RoundDownAndComplete(relaxed, ties)
		return true
	}
}

// randomILP is a seeded random small packing program (fuzzILP over random
// bytes).
func randomILP(seed int64) *Problem {
	data := make([]byte, 120)
	rand.New(rand.NewSource(seed)).Read(data)
	return fuzzILP(data)
}

// descend evaluates p's root and keeps following one child — the floor
// child at the levels floor picks, the ceil child otherwise — until a leaf
// or depth, returning the nodes met, root first.
func descend(w *worker, depth int, floor func(level int) bool) []*node {
	nodes := []*node{{bound: math.Inf(1)}}
	var o outcome
	for len(nodes) <= depth {
		nd := nodes[len(nodes)-1]
		w.eval(nd, math.Inf(-1), &o, false)
		if o.branchJ < 0 {
			break
		}
		nodes = append(nodes, nd.child(&o, !floor(len(nodes))))
	}
	return nodes
}

// oddLevels sends a dive down the floor child at every other level: a
// floor fixes one binary where a ceil settles a whole deployment, so the
// dive runs about twice as deep before it reaches a leaf.
func oddLevels(level int) bool { return level%2 == 1 }

// propagationProblems are the programs the propagation tests dive
// through: placement-shaped batches and small random packing programs.
func propagationProblems() []*Problem {
	var probs []*Problem
	for seed := int64(1); seed <= 4; seed++ {
		probs = append(probs, placementShaped(seed, 12))
	}
	for seed := int64(1); seed <= 60; seed++ {
		probs = append(probs, randomILP(seed))
	}
	return probs
}

// sameBox reports the first variable whose bounds differ in their bits
// between two boxes, or -1.
func sameBox(lo, up, wantLo, wantUp []float64) int {
	for j := range wantLo {
		if math.Float64bits(lo[j]) != math.Float64bits(wantLo[j]) || math.Float64bits(up[j]) != math.Float64bits(wantUp[j]) {
			return j
		}
	}
	return -1
}

// TestPropagateSparseMatchesDense: along random dives through
// placement-shaped and random packing programs, propagating each node's
// decisions through their variables' rows from the root's box reaches the
// same bounds, bit for bit, as sweeping every dense row from the unit box
// until nothing changes; and every variable whose bounds differ from the
// root box's is listed as touched, which is what reset restores.
func TestPropagateSparseMatchesDense(t *testing.T) {
	checked := 0
	for pi, p := range propagationProblems() {
		s := newSearch(p, Options{}, time.Now)
		w := newWorker(s)
		coin := rand.New(rand.NewSource(int64(pi)))
		for _, nd := range descend(w, 12, func(int) bool { return coin.Intn(3) == 0 }) {
			ref := &referenceBox{p: p, lo: make([]float64, s.n), up: make([]float64, s.n)}
			for j := range ref.up {
				ref.up[j] = 1
			}
			for c := nd.chain; c != nil; c = c.prev {
				ref.lo[c.j] = math.Max(ref.lo[c.j], c.lo)
				ref.up[c.j] = math.Min(ref.up[c.j], c.up)
			}
			got, want := s.rootOK && w.bounds(nd, false), ref.propagate()
			if got != want {
				t.Fatalf("problem %d: propagate = %v, dense %v", pi, got, want)
			}
			if !want {
				continue // an empty box: where each side noticed is immaterial
			}
			if j := sameBox(w.lo, w.up, ref.lo, ref.up); j >= 0 {
				t.Fatalf("problem %d var %d: bounds [%v, %v], dense [%v, %v]", pi, j, w.lo[j], w.up[j], ref.lo[j], ref.up[j])
			}
			for j := range ref.lo {
				if (ref.lo[j] != s.root.lo[j] || ref.up[j] != s.root.up[j]) && !slices.Contains(w.touched, j) {
					t.Fatalf("problem %d var %d: moved from the root box but not listed as touched", pi, j)
				}
				if ref.up[j] < s.root.up[j] {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no propagation tightened anything: the test compares nothing")
	}
}

// TestChildPropagationMatchesScratch: replaying random dives the way a
// worker runs them — each node evaluated right after its parent, so it
// starts from the parent's propagated box — leaves every node with the box
// a from-scratch propagation of its whole chain reaches.
func TestChildPropagationMatchesScratch(t *testing.T) {
	compared := 0
	for pi, p := range propagationProblems() {
		s := newSearch(p, Options{}, time.Now)
		coin := rand.New(rand.NewSource(int64(pi)))
		nodes := descend(newWorker(s), 12, func(int) bool { return coin.Intn(3) == 0 })
		w, scratch := newWorker(s), newWorker(s)
		var o outcome
		for i, nd := range nodes {
			w.eval(nd, math.Inf(-1), &o, i > 0)
			if !scratch.bounds(nd, false) {
				break // the dive ends here: propagation emptied the box
			}
			if !w.settled {
				t.Fatalf("problem %d level %d: the child's propagation did not settle", pi, i)
			}
			if j := sameBox(w.lo, w.up, scratch.lo, scratch.up); j >= 0 {
				t.Fatalf("problem %d level %d var %d: child box [%v, %v], from scratch [%v, %v]",
					pi, i, j, w.lo[j], w.up[j], scratch.lo[j], scratch.up[j])
			}
			if i > 0 {
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no dive reached a child: the test compares nothing")
	}
}

// TestFeasibleSparseMatchesDense: candidate verification over the row
// index accepts and rejects exactly what the dense scan does.
func TestFeasibleSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for seed := int64(1); seed <= 80; seed++ {
		p := randomILP(seed)
		rows := newRowIndex(p)
		for trial := 0; trial < 40; trial++ {
			x := make([]float64, p.LP.NumVars())
			for j := range x {
				x[j] = float64(rng.Intn(2))
				switch rng.Intn(16) {
				case 0:
					x[j] += rng.Float64() - 0.5
				case 1:
					x[j] = 2
				}
			}
			got, want := p.feasible(x, &rows), referenceFeasible(p, x)
			if got != want {
				t.Fatalf("seed %d x=%v: feasible = %v, dense %v", seed, x, got, want)
			}
			if want {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("every point was infeasible: the test compares one side only")
	}
}

// TestGreedyMatchesDense: the greedy incumbent built on the column view
// equals the dense scan's — on placement-shaped problems, on one with a
// negative right-hand side (which refuses every variable) and on one whose
// tightest row is reached exactly.
func TestGreedyMatchesDense(t *testing.T) {
	var probs []*Problem
	for seed := int64(1); seed <= 6; seed++ {
		probs = append(probs, placementShaped(seed, 10))
	}
	neg := placementShaped(7, 6)
	neg.LP.AddConstraint([]float64{0, 0, 1}, -0.5)
	exact := binaryProblem([]float64{5, 4, 3, 2})
	exact.LP.AddConstraint([]float64{1, 1 + 1e-9, 1, 1}, 2)
	probs = append(probs, neg, exact)
	for pi, p := range probs {
		got, want := GreedyBinaryIncumbent(p), referenceGreedy(p)
		if len(got) != len(want) {
			t.Fatalf("problem %d: %d entries, dense %d", pi, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("problem %d: x[%d] = %v, dense %v", pi, j, got[j], want[j])
			}
		}
	}
	for _, v := range GreedyBinaryIncumbent(neg) {
		if v != 0 {
			t.Fatal("a negative right-hand side must refuse every variable")
		}
	}
}

// TestTryCandidateOrderIrrelevant: comparing the objective before
// verifying feasibility adopts exactly the candidates that verifying first
// did — an infeasible candidate with a better objective and a feasible one
// with a worse objective both leave the incumbent alone.
func TestTryCandidateOrderIrrelevant(t *testing.T) {
	p := binaryProblem([]float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)
	s := newSearch(p, Options{}, time.Now)
	s.tryCandidate([]float64{1, 1, 0}) // feasible, 160
	if s.best == nil || s.best.Objective != 160 || s.improved != 1 {
		t.Fatalf("first candidate: best %+v improved %d", s.best, s.improved)
	}
	for _, cand := range [][]float64{
		{1, 1, 1},                // better (280) but over capacity
		{0, 0, 1},                // feasible but worse (120)
		{1, 1, 0},                // feasible, equal: not strictly better
		{1, 1, 0.5},              // rounds to the over-capacity point
		{1, 1 + 4e-7, 0},         // rounds to the incumbent
		{1, 1},                   // wrong length
		{-1, 1, 1},               // better but negative
		{math.NaN(), 1, 1},       // objective is not a number
		{1 - 4e-7, 1 - 4e-7, -0}, // rounds to the incumbent
	} {
		s.tryCandidate(cand)
		if s.best.Objective != 160 || s.improved != 1 || s.incumbent != 160 {
			t.Fatalf("candidate %v moved the incumbent: %+v improved %d", cand, s.best, s.improved)
		}
	}
	s.tryCandidate([]float64{0, 1, 1 - 4e-7}) // feasible after rounding, 220
	if s.best.Objective != 220 || s.improved != 2 || s.best.X[2] != 1 {
		t.Fatalf("better feasible candidate: best %+v improved %d", s.best, s.improved)
	}
}

// TestEvalScratchStable: a worker's scratch is sized when it is made, so
// replaying a dive — deep nodes before shallow ones — with the
// placement-style completion heuristic attached allocates only the
// candidates it keeps. With the incumbent at the best point any of the
// dive's nodes yields — as good as the search can know — it allocates
// nothing: the simplex solution is the solver's buffer, the heuristic
// completes in the worker's Packing, and no candidate improves. In
// particular the coefficient arena is never re-made, whichever worker
// meets the deepest node.
func TestEvalScratchStable(t *testing.T) {
	p := placementShaped(3, 40)
	complete := completionHeuristic(p)
	calls := 0
	s := newSearch(p, Options{Heuristic: func(relaxed []float64, pk *Packing) bool {
		calls++
		return complete(relaxed, pk)
	}}, time.Now)
	w := newWorker(s)
	nodes := descend(w, 30, oddLevels)
	if len(nodes) <= 30 {
		t.Fatalf("dive ended at depth %d", len(nodes)-1)
	}
	arena := &w.coef[0]
	var o outcome
	best, kept := math.Inf(-1), 0
	for _, nd := range nodes {
		w.eval(nd, math.Inf(-1), &o, false)
		if o.cand != nil {
			kept++
			best = max(best, o.candObj) // the problem maximizes
		}
	}
	if kept == 0 {
		t.Fatal("no node yields a candidate")
	}
	replay := func() {
		for i := range nodes {
			w.eval(nodes[len(nodes)-1-i], best, &o, false) // deepest first
		}
	}
	replay()
	calls = 0
	if perNode := testing.AllocsPerRun(5, replay) / float64(len(nodes)); perNode != 0 {
		t.Errorf("%.2f allocations per node, want 0", perNode)
	}
	if calls == 0 {
		t.Error("the heuristic never ran: every node was bound-dominated")
	}
	if &w.coef[0] != arena {
		t.Error("the coefficient arena was re-made")
	}
	if cap(w.coef) != len(p.LP.Constraints)*p.LP.NumVars() {
		t.Errorf("arena holds %d coefficients, want rows × variables = %d",
			cap(w.coef), len(p.LP.Constraints)*p.LP.NumVars())
	}
}

// BenchmarkNodeEval times one node evaluation — bounds, propagation,
// reduced-LP build, simplex, branching choice — on a placement-shaped
// batch of 40 at the root and 10 and 30 levels down a dive, where
// fix-and-substitute has shrunk the LP.
func BenchmarkNodeEval(b *testing.B) {
	p := placementShaped(3, 40)
	s := newSearch(p, Options{}, time.Now)
	w := newWorker(s)
	nodes := descend(w, 30, oddLevels)
	for _, depth := range []int{0, 10, 30} {
		if depth >= len(nodes) {
			b.Fatalf("dive ended at depth %d", len(nodes)-1)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var o outcome
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.eval(nodes[depth], math.Inf(-1), &o, false)
			}
		})
	}
}
