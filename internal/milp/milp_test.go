package milp

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flex/internal/lp"
)

// Solve is the ctx-less shorthand these tests use. Production code calls
// SolveContext with the caller's budget; the Background wrapper lives here
// so ctxflow keeps it out of the library surface.
func Solve(p *Problem, opts Options) (Result, error) {
	return SolveContext(context.Background(), p, opts)
}

// binaryProblem is max obj·x with a row x_j <= 1 per variable.
func binaryProblem(obj []float64) *Problem {
	n := len(obj)
	p := &Problem{LP: lp.Problem{Objective: obj}}
	for j := 0; j < n; j++ {
		coeffs := make([]float64, n)
		coeffs[j] = 1
		p.LP.AddConstraint(coeffs, 1)
	}
	return p
}

func TestSolveKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. weights 5a+4b+3c <= 7, binary.
	// Optimal: a + c? 10+4=14 weight 8 >7. a alone: 10 (w5). b+c: 10 (w7).
	// a+b: 16 w9 no. Best is 14? a+c w=8 infeasible. So max(10, 10)=10...
	// Use classic: values 60,100,120 weights 10,20,30 cap 50 → 100+120=220.
	p := binaryProblem([]float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if math.Abs(r.Objective-220) > 1e-6 {
		t.Fatalf("objective = %v, want 220", r.Objective)
	}
	if r.X[0] != 0 || r.X[1] != 1 || r.X[2] != 1 {
		t.Fatalf("x = %v, want [0 1 1]", r.X)
	}
}

func TestSolveIntegerVsRelaxationGap(t *testing.T) {
	// LP relaxation would take fractional items; MILP must not.
	p := binaryProblem([]float64{10, 10})
	p.LP.AddConstraint([]float64{6, 6}, 7) // only one item fits
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-10) > 1e-6 {
		t.Fatalf("got %v obj=%v, want optimal 10", r.Status, r.Objective)
	}
	for _, x := range r.X {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Fatalf("non-integral solution %v", r.X)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	// Coefficients are non-negative, so a negative right-hand side refuses
	// every point, x = 0 included.
	p := binaryProblem([]float64{1, 2})
	p.LP.AddConstraint([]float64{0, 1}, -0.5)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible || r.X != nil {
		t.Fatalf("status = %v x = %v, want infeasible", r.Status, r.X)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// A variable no row bounds at <= 1 is not binary: Validate refuses the
	// problem before a relaxation could be unbounded.
	for _, p := range []*Problem{
		{LP: lp.Problem{Objective: []float64{1}}},
		{LP: lp.Problem{Objective: []float64{1}, Constraints: []lp.Constraint{{Coeffs: []float64{1}, RHS: 2}}}},
		{LP: lp.Problem{Objective: []float64{1}, Constraints: []lp.Constraint{{Coeffs: []float64{1e-13}, RHS: 0}}}},
	} {
		if _, err := Solve(p, Options{}); err == nil || !strings.Contains(err.Error(), "bounds variable 0") {
			t.Errorf("rows %v: err = %v, want the unbounded variable refused", p.LP.Constraints, err)
		}
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A somewhat larger knapsack under a context deadline that expires
	// while the search is under way: we should still get a Feasible (not
	// Optimal) answer if any incumbent was found, or Feasible with nil X
	// otherwise.
	rng := rand.New(rand.NewSource(5))
	n := 12
	obj := make([]float64, n)
	w := make([]float64, n)
	for j := range obj {
		obj[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*9
	}
	p := binaryProblem(obj)
	p.LP.AddConstraint(w, 15)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	r, err := SolveContext(ctx, p, Options{Workers: 1, Heuristic: pacedUntilDone(ctx)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Feasible {
		t.Fatalf("status = %v, want feasible (deadline)", r.Status)
	}
}

// pacedUntilDone is a heuristic that proposes nothing and holds its first
// node until ctx is done, then paces the rest so the tree cannot be
// exhausted before the context watcher has stopped the search.
func pacedUntilDone(ctx context.Context) func([]float64, *Packing) bool {
	return func([]float64, *Packing) bool {
		<-ctx.Done()
		time.Sleep(time.Millisecond)
		return false
	}
}

func TestMaxNodesLimit(t *testing.T) {
	p := binaryProblem([]float64{3, 5, 7, 9})
	p.LP.AddConstraint([]float64{2, 3, 4, 5}, 7)
	r, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes > 1 {
		t.Fatalf("explored %d nodes, limit 1", r.Nodes)
	}
	if r.Status == Optimal {
		t.Fatal("cannot prove optimality in 1 node for a fractional root")
	}
}

// Exhaustive cross-check: B&B matches brute force on random small binary
// knapsacks.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5) // 3..7 binaries
		obj := make([]float64, n)
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = math.Round(rng.Float64()*20) + 1
			w1[j] = math.Round(rng.Float64()*10) + 1
			w2[j] = math.Round(rng.Float64()*10) + 1
		}
		cap1 := math.Round(rng.Float64()*20) + 5
		cap2 := math.Round(rng.Float64()*20) + 5
		p := binaryProblem(obj)
		p.LP.AddConstraint(w1, cap1)
		p.LP.AddConstraint(w2, cap2)

		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			s1, s2, v := 0.0, 0.0, 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					s1 += w1[j]
					s2 += w2[j]
					v += obj[j]
				}
			}
			if s1 <= cap1 && s2 <= cap2 && v > best {
				best = v
			}
		}
		r, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, r.Status)
		}
		if math.Abs(r.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: B&B %v vs brute force %v", trial, r.Objective, best)
		}
	}
}

func TestGreedyBinaryIncumbent(t *testing.T) {
	p := binaryProblem([]float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)
	x := GreedyBinaryIncumbent(p)
	if x == nil {
		t.Fatal("greedy returned nil")
	}
	// Greedy by value picks 120 (w30) then 100 (w20) → cap exactly 50.
	if x[2] != 1 || x[1] != 1 || x[0] != 0 {
		t.Fatalf("greedy x = %v", x)
	}
	// Feasibility always holds.
	used := 10*x[0] + 20*x[1] + 30*x[2]
	if used > 50 {
		t.Fatalf("greedy violates capacity: %v", used)
	}
}

func TestGreedyRejectsUnsupportedForms(t *testing.T) {
	p := binaryProblem([]float64{1})
	p.LP.AddConstraint([]float64{-1}, 0)
	if GreedyBinaryIncumbent(p) != nil {
		t.Fatal("greedy should reject negative coefficients")
	}
	q := &Problem{LP: lp.Problem{Objective: []float64{1}}}
	if GreedyBinaryIncumbent(q) != nil {
		t.Fatal("greedy should reject a variable no row bounds")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Feasible: "feasible",
		Infeasible: "infeasible"} {
		if s.String() != want {
			t.Errorf("%d → %q, want %q", s, s.String(), want)
		}
	}
	if Status(7).String() != "Status(7)" {
		t.Error("unknown status")
	}
}

func TestRelGapTerminatesEarly(t *testing.T) {
	// A loose gap accepts the first incumbent once it is close to the
	// bound. With gap=1.0 any positive incumbent ends the search.
	p := binaryProblem([]float64{3, 5, 7, 9, 11, 13})
	p.LP.AddConstraint([]float64{2, 3, 4, 5, 6, 7}, 11)
	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(p, Options{RelGap: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != Optimal && loose.Status != Feasible {
		t.Fatalf("loose status %v", loose.Status)
	}
	if loose.Nodes > exact.Nodes {
		t.Fatalf("loose gap explored more nodes (%d) than exact (%d)", loose.Nodes, exact.Nodes)
	}
	if loose.Objective > exact.Objective+1e-9 {
		t.Fatal("loose objective exceeds exact optimum")
	}
}

func TestHeuristicCandidateAdopted(t *testing.T) {
	// A heuristic that immediately returns the optimum must be adopted.
	p := binaryProblem([]float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)
	called := false
	r, err := Solve(p, Options{
		Heuristic: func(relaxed []float64, pk *Packing) bool {
			called = true
			pk.Take(1)
			pk.Take(2)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("heuristic never called")
	}
	if r.Status != Optimal || math.Abs(r.Objective-220) > 1e-6 {
		t.Fatalf("status=%v obj=%v", r.Status, r.Objective)
	}
}

func TestInvalidIncumbentIgnored(t *testing.T) {
	p := binaryProblem([]float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)
	// Infeasible incumbent (violates knapsack) and wrong-length incumbent
	// must both be ignored without corrupting the search.
	r, err := Solve(p, Options{Incumbent: []float64{1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-220) > 1e-6 {
		t.Fatalf("status=%v obj=%v", r.Status, r.Objective)
	}
	r2, err := Solve(p, Options{Incumbent: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != Optimal {
		t.Fatalf("status=%v", r2.Status)
	}
}

// TestValidate: SolveContext refuses every problem outside the 0/1 packing
// class with Validate's error, and accepts the class itself. A row longer
// than the variable count used to index past the rows' end, and a NaN
// right-hand side used to solve "optimal" with every variable at 1.
func TestValidate(t *testing.T) {
	ok := func() *Problem {
		p := binaryProblem([]float64{1, 2})
		p.LP.AddConstraint([]float64{1, 1}, 1.5)
		return p
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("a packing problem: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(p *Problem)
		want string
	}{
		{"row longer than the variables", func(p *Problem) { p.LP.AddConstraint([]float64{1, 1, 1}, 1) }, "3 coefficients for 2 variables"},
		{"NaN right-hand side", func(p *Problem) { p.LP.Constraints[2].RHS = math.NaN() }, "right-hand side NaN"},
		{"infinite right-hand side", func(p *Problem) { p.LP.Constraints[2].RHS = math.Inf(1) }, "right-hand side +Inf"},
		{"negative coefficient", func(p *Problem) { p.LP.Constraints[2].Coeffs[0] = -1 }, "coefficient -1"},
		{"NaN coefficient", func(p *Problem) { p.LP.Constraints[2].Coeffs[1] = math.NaN() }, "coefficient NaN"},
		{"infinite coefficient", func(p *Problem) { p.LP.Constraints[2].Coeffs[1] = math.Inf(1) }, "coefficient +Inf"},
		{"negative objective", func(p *Problem) { p.LP.Objective[1] = -2 }, "objective entry 1 is -2"},
		{"infinite objective", func(p *Problem) { p.LP.Objective[0] = math.Inf(1) }, "objective entry 0 is +Inf"},
		{"NaN objective", func(p *Problem) { p.LP.Objective[0] = math.NaN() }, "objective entry 0 is NaN"},
		{"unbounded variable", func(p *Problem) { p.LP.Constraints[1].RHS = 2 }, "bounds variable 1"},
		{"no variables", func(p *Problem) { p.LP = lp.Problem{} }, "no variables"},
	} {
		p := ok()
		c.edit(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
		if _, serr := Solve(p, Options{Workers: 1}); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: SolveContext = %v, want Validate's error", c.name, serr)
		}
	}
}

// TestSolveNaNRightHandSide: x1 + x2 <= NaN meets no point, and the solver
// must not call every variable at 1 optimal.
func TestSolveNaNRightHandSide(t *testing.T) {
	p := binaryProblem([]float64{1, 1})
	p.LP.AddConstraint([]float64{1, 1}, math.NaN())
	if r, err := Solve(p, Options{}); err == nil {
		t.Fatalf("status %v x %v, want the NaN right-hand side refused", r.Status, r.X)
	}
}

// TestSolveLongRow: a row with more coefficients than variables is refused
// with an error, as lp.Solve refuses it, not a panic.
func TestSolveLongRow(t *testing.T) {
	p := binaryProblem([]float64{1, 1})
	p.LP.AddConstraint([]float64{1, 1, 1}, 1)
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("want the long row refused")
	}
}
