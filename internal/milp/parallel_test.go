package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flex/internal/obs"
)

// randomKnapsack builds a seeded multi-constraint binary knapsack with n
// items; the instances have enough near-ties to force real branching.
func randomKnapsack(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	obj := make([]float64, n)
	for j := range obj {
		obj[j] = 1 + float64(rng.Intn(40))
	}
	p := binaryProblem(obj)
	for k := 0; k < 2; k++ {
		w := make([]float64, n)
		var total float64
		for j := range w {
			w[j] = 1 + float64(rng.Intn(20))
			total += w[j]
		}
		p.LP.AddConstraint(w, math.Floor(total*0.45))
	}
	return p
}

// TestDeterministicAcrossWorkers is the determinism contract: serial and
// parallel runs of the same problem return the same objective, status,
// solution, and node count — without a heuristic, and with the completion
// heuristic building candidates in every worker's own Packing.
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		p := randomKnapsack(seed, 14)
		for _, heuristic := range []func([]float64, *Packing) bool{nil, completionHeuristic(p)} {
			sameAcrossWorkers(t, seed, p, heuristic)
		}
	}
}

func sameAcrossWorkers(t *testing.T, seed int64, p *Problem, heuristic func([]float64, *Packing) bool) {
	t.Helper()
	ref, err := SolveContext(context.Background(), p, Options{Workers: 1, Heuristic: heuristic})
	if err != nil {
		t.Fatalf("seed %d serial: %v", seed, err)
	}
	for _, workers := range []int{2, 4, 8} {
		r, err := SolveContext(context.Background(), p, Options{Workers: workers, Heuristic: heuristic})
		if err != nil {
			t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
		}
		if r.Status != ref.Status {
			t.Errorf("seed %d workers=%d: status %v, serial %v", seed, workers, r.Status, ref.Status)
		}
		if math.Abs(r.Objective-ref.Objective) > 1e-9 {
			t.Errorf("seed %d workers=%d: objective %v, serial %v", seed, workers, r.Objective, ref.Objective)
		}
		if r.Nodes != ref.Nodes {
			t.Errorf("seed %d workers=%d: nodes %d, serial %d", seed, workers, r.Nodes, ref.Nodes)
		}
		for j := range ref.X {
			if math.Abs(r.X[j]-ref.X[j]) > 1e-9 {
				t.Errorf("seed %d workers=%d: x[%d]=%v, serial %v", seed, workers, j, r.X[j], ref.X[j])
				break
			}
		}
	}
}

// TestParallelMatchesSerialObjective: any worker count that runs the
// search to completion proves the same optimal objective, and reports the
// worker count it ran with.
func TestParallelMatchesSerialObjective(t *testing.T) {
	for _, seed := range []int64{5, 9} {
		p := randomKnapsack(seed, 12)
		ref, err := SolveContext(context.Background(), p, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Status != Optimal {
			t.Fatalf("serial status = %v", ref.Status)
		}
		for _, workers := range []int{2, 4, 8} {
			r, err := SolveContext(context.Background(), p, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != Optimal || math.Abs(r.Objective-ref.Objective) > 1e-9 {
				t.Errorf("workers=%d: got %v obj=%v, want optimal %v", workers, r.Status, r.Objective, ref.Objective)
			}
			if r.Workers != workers {
				t.Errorf("Result.Workers = %d, want %d", r.Workers, workers)
			}
		}
	}
}

// TestConcurrentIncumbentStress runs several eight-worker solves at once,
// with the completion heuristic; under -race it checks that workers share
// nothing but the problem, its column view, their own dive and the stop
// flag — each completes candidates in its own Packing — and that
// concurrent solves share nothing.
func TestConcurrentIncumbentStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := randomKnapsack(int64(100+g), 13)
			r, err := SolveContext(context.Background(), p, Options{Workers: 8, Heuristic: completionHeuristic(p)})
			if err != nil {
				t.Errorf("solve %d: %v", g, err)
				return
			}
			if r.Status != Optimal {
				t.Errorf("solve %d: status %v", g, r.Status)
			}
			if r.IncumbentImprovements < 1 {
				t.Errorf("solve %d: no incumbent improvements recorded", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestCancelReturnsIncumbent cancels mid-search and asserts a prompt
// return carrying the best incumbent found so far, Stop == StopCanceled,
// and context.Cause as the error.
func TestCancelReturnsIncumbent(t *testing.T) {
	p := randomKnapsack(21, 16)
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())

	// A heuristic that cancels once the search has an incumbent: the solve
	// must still hand that incumbent back.
	warm := GreedyBinaryIncumbent(p)
	if warm == nil {
		t.Fatal("greedy produced no warm start")
	}
	var once sync.Once
	opts := Options{
		Workers:   2,
		Incumbent: warm,
		Heuristic: func([]float64, *Packing) bool {
			once.Do(func() { cancel(cause) })
			// Pace node evaluation so the remaining tree cannot be
			// exhausted before the cancellation watcher fires.
			time.Sleep(time.Millisecond)
			return false
		},
	}
	start := time.Now()
	r, err := SolveContext(ctx, p, opts)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want cause %v", err, cause)
	}
	if r.Stop != StopCanceled {
		t.Fatalf("Stop = %v, want StopCanceled", r.Stop)
	}
	if !errors.Is(r.Cause, cause) {
		t.Fatalf("Cause = %v, want %v", r.Cause, cause)
	}
	if r.X == nil {
		t.Fatal("canceled solve dropped the incumbent")
	}
	if want := p.ObjectiveValue(warm); r.Objective < want-1e-9 {
		t.Fatalf("objective %v worse than warm start %v", r.Objective, want)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestPreCanceledContext: a solve under an already-canceled context must
// not search, but still reports the verified warm start.
func TestPreCanceledContext(t *testing.T) {
	p := randomKnapsack(33, 12)
	warm := GreedyBinaryIncumbent(p)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("already done")
	cancel(cause)
	r, err := SolveContext(ctx, p, Options{Workers: 4, Incumbent: warm})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if r.Stop != StopCanceled {
		t.Fatalf("Stop = %v", r.Stop)
	}
	if warm != nil && r.X == nil {
		t.Fatal("warm start lost")
	}
}

// TestStopReasonAudit checks that every truncation path reports exactly
// one reason through Result.Stop, and that Metrics counts it as such.
func TestStopReasonAudit(t *testing.T) {
	base := randomKnapsack(21, 18) // deep enough to truncate
	m := NewMetrics(obs.NewRegistry())

	t.Run("complete", func(t *testing.T) {
		r, err := SolveContext(context.Background(), base, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stop != StopNone || r.Cause != nil {
			t.Fatalf("complete search reported Stop=%v cause=%v", r.Stop, r.Cause)
		}
	})

	t.Run("node-limit", func(t *testing.T) {
		r, err := SolveContext(context.Background(), base, Options{Workers: 2, MaxNodes: 3, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stop != StopNodeLimit {
			t.Fatalf("Stop=%v", r.Stop)
		}
		if m.NodeLimitHits.Value() != 1 || m.DeadlineHits.Value() != 0 {
			t.Fatalf("metrics: node-limit hits %d, deadline hits %d", m.NodeLimitHits.Value(), m.DeadlineHits.Value())
		}
	})

	t.Run("ctx-deadline-mid-search", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		r, err := SolveContext(ctx, base, Options{Workers: 1, Heuristic: pacedUntilDone(ctx)})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stop != StopDeadline {
			t.Fatalf("Stop=%v", r.Stop)
		}
		if r.Nodes == 0 {
			t.Fatal("the deadline was to expire inside the search, not before it")
		}
	})

	t.Run("ctx-deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		defer cancel()
		time.Sleep(time.Millisecond)
		r, err := SolveContext(ctx, base, Options{Workers: 2, Metrics: m})
		if err != nil {
			t.Fatalf("deadline must be a budget, not an error: %v", err)
		}
		if r.Stop != StopDeadline {
			t.Fatalf("Stop=%v", r.Stop)
		}
		if m.DeadlineHits.Value() != 1 || m.NodeLimitHits.Value() != 1 {
			t.Fatalf("metrics: deadline hits %d, node-limit hits %d", m.DeadlineHits.Value(), m.NodeLimitHits.Value())
		}
	})
}

// TestWorkerIdleCountsBarrier: the first round is the root's dive alone,
// so a second worker waits out the whole of it, and Result.WorkerIdle must
// say so; a single worker has no barrier to wait at. The fake clock steps
// one second per reading.
func TestWorkerIdleCountsBarrier(t *testing.T) {
	p := randomKnapsack(21, 18)
	for _, workers := range []int{1, 2} {
		readings := 0
		now := func() time.Time {
			readings++ // unguarded on purpose: Options.Now is never called concurrently
			return time.Unix(int64(readings), 0)
		}
		r, err := SolveContext(context.Background(), p, Options{Workers: workers, Now: now})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Optimal {
			t.Fatalf("workers=%d: status %v", workers, r.Status)
		}
		if idle := r.WorkerIdle > 0; idle != (workers > 1) {
			t.Errorf("workers=%d: WorkerIdle = %v over %v elapsed", workers, r.WorkerIdle, r.Elapsed)
		}
		if r.WorkerIdle > time.Duration(workers)*r.Elapsed {
			t.Errorf("workers=%d: WorkerIdle %v exceeds %d × elapsed %v", workers, r.WorkerIdle, workers, r.Elapsed)
		}
	}
}

// TestObjectiveValue pins the public evaluation helper used by warm-start
// construction.
func TestObjectiveValue(t *testing.T) {
	p := binaryProblem([]float64{3, 5})
	if got := p.ObjectiveValue([]float64{1, 1}); math.Abs(got-8) > 1e-12 {
		t.Fatalf("ObjectiveValue = %v, want 8", got)
	}
}
