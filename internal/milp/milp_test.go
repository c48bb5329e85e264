package milp

import (
	"context"
	"math"
	"math/rand"
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

func binaryProblem(maximize bool, obj []float64) *Problem {
	n := len(obj)
	p := &Problem{
		LP:      lp.Problem{Maximize: maximize, Objective: obj},
		Integer: make([]bool, n),
	}
	for j := 0; j < n; j++ {
		p.Integer[j] = true
		coeffs := make([]float64, n)
		coeffs[j] = 1
		p.LP.AddConstraint(coeffs, lp.LE, 1)
	}
	return p
}

func TestSolveKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. weights 5a+4b+3c <= 7, binary.
	// Optimal: a + c? 10+4=14 weight 8 >7. a alone: 10 (w5). b+c: 10 (w7).
	// a+b: 16 w9 no. Best is 14? a+c w=8 infeasible. So max(10, 10)=10...
	// Use classic: values 60,100,120 weights 10,20,30 cap 50 → 100+120=220.
	p := binaryProblem(true, []float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
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
	p := binaryProblem(true, []float64{10, 10})
	p.LP.AddConstraint([]float64{6, 6}, lp.LE, 7) // only one item fits
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

func TestSolveMinimization(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 3, x,y integer (bounded by <= 10).
	p := &Problem{
		LP:      lp.Problem{Maximize: false, Objective: []float64{3, 2}},
		Integer: []bool{true, true},
	}
	p.LP.AddConstraint([]float64{1, 1}, lp.GE, 3)
	p.LP.AddConstraint([]float64{1, 0}, lp.LE, 10)
	p.LP.AddConstraint([]float64{0, 1}, lp.LE, 10)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-6) > 1e-6 { // y=3
		t.Fatalf("got %v obj=%v, want optimal 6", r.Status, r.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := binaryProblem(true, []float64{1})
	p.LP.AddConstraint([]float64{1}, lp.GE, 2) // x>=2 but x<=1
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{Maximize: true, Objective: []float64{1}},
		Integer: []bool{true},
	}
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

func TestSolveBadMask(t *testing.T) {
	p := &Problem{LP: lp.Problem{Maximize: true, Objective: []float64{1, 2}}, Integer: []bool{true}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected error for wrong Integer mask length")
	}
}

func TestSolveMixedIntegerContinuous(t *testing.T) {
	// max x + y, x integer <= 2.5 bound via constraint, y continuous <= 1.5:
	// x=2 (integer), y=1.5 → 3.5.
	p := &Problem{
		LP:      lp.Problem{Maximize: true, Objective: []float64{1, 1}},
		Integer: []bool{true, false},
	}
	p.LP.AddConstraint([]float64{1, 0}, lp.LE, 2.5)
	p.LP.AddConstraint([]float64{0, 1}, lp.LE, 1.5)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-3.5) > 1e-6 {
		t.Fatalf("got %v obj=%v, want optimal 3.5", r.Status, r.Objective)
	}
	if math.Abs(r.X[0]-2) > 1e-6 {
		t.Fatalf("x0 = %v, want 2", r.X[0])
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
	p := binaryProblem(true, obj)
	p.LP.AddConstraint(w, lp.LE, 15)

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
	p := binaryProblem(true, []float64{3, 5, 7, 9})
	p.LP.AddConstraint([]float64{2, 3, 4, 5}, lp.LE, 7)
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
		p := binaryProblem(true, obj)
		p.LP.AddConstraint(w1, lp.LE, cap1)
		p.LP.AddConstraint(w2, lp.LE, cap2)

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
	p := binaryProblem(true, []float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
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
	p := binaryProblem(true, []float64{1})
	p.LP.AddConstraint([]float64{1}, lp.GE, 0)
	if GreedyBinaryIncumbent(p) != nil {
		t.Fatal("greedy should reject GE constraints")
	}
	q := binaryProblem(true, []float64{1})
	q.LP.AddConstraint([]float64{-1}, lp.LE, 0)
	if GreedyBinaryIncumbent(q) != nil {
		t.Fatal("greedy should reject negative coefficients")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Feasible: "feasible",
		Infeasible: "infeasible", Unbounded: "unbounded"} {
		if s.String() != want {
			t.Errorf("%d → %q, want %q", s, s.String(), want)
		}
	}
	if Status(7).String() != "Status(7)" {
		t.Error("unknown status")
	}
}

func TestSolveWithEqualityConstraint(t *testing.T) {
	// Exactly two of four items (equality), maximize value.
	p := binaryProblem(true, []float64{5, 4, 3, 2})
	p.LP.AddConstraint([]float64{1, 1, 1, 1}, lp.EQ, 2)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Objective-9) > 1e-6 {
		t.Fatalf("status=%v obj=%v, want optimal 9", r.Status, r.Objective)
	}
	count := 0.0
	for _, x := range r.X {
		count += x
	}
	if math.Abs(count-2) > 1e-6 {
		t.Fatalf("selected %v items, want exactly 2", count)
	}
}

func TestRelGapTerminatesEarly(t *testing.T) {
	// A loose gap accepts the first incumbent once it is close to the
	// bound. With gap=1.0 any positive incumbent ends the search.
	p := binaryProblem(true, []float64{3, 5, 7, 9, 11, 13})
	p.LP.AddConstraint([]float64{2, 3, 4, 5, 6, 7}, lp.LE, 11)
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
	p := binaryProblem(true, []float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
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
	p := binaryProblem(true, []float64{60, 100, 120})
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
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
