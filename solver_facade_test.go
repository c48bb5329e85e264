package flex

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestSolveMILPFacade drives the re-exported solver surface end to end:
// build a problem with the facade types, solve it under a context, and
// check the status/stop constants line up.
func TestSolveMILPFacade(t *testing.T) {
	p := &MILPProblem{LP: LinearProblem{Objective: []float64{60, 100, 120}}}
	for j := 0; j < 3; j++ {
		unit := make([]float64, 3)
		unit[j] = 1
		p.LP.AddConstraint(unit, 1)
	}
	p.LP.AddConstraint([]float64{10, 20, 30}, 50)

	r, err := SolveMILP(context.Background(), p, SolveOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != SolveOptimal || r.Stop != StopNone {
		t.Fatalf("status=%v stop=%v", r.Status, r.Stop)
	}
	if math.Abs(r.Objective-220) > 1e-9 {
		t.Fatalf("objective = %v, want 220", r.Objective)
	}

	cause := errors.New("abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	r, err = SolveMILP(ctx, p, SolveOptions{})
	if !errors.Is(err, cause) || r.Stop != StopCanceled {
		t.Fatalf("err=%v stop=%v, want cause+StopCanceled", err, r.Stop)
	}
}

// TestBatchPlacementILP checks the exported problem builder produces the
// real Flex-Offline formulation: solvable, and with one assignment block
// per deployment.
func TestBatchPlacementILP(t *testing.T) {
	room := PaperRoom()
	trace, err := GenerateTrace(DefaultTraceConfig(room.Topo.ProvisionedPower()), 3)
	if err != nil {
		t.Fatal(err)
	}
	batch := trace[:6]
	p := BatchPlacementILP(room, batch)
	if err := p.Validate(); err != nil {
		t.Fatalf("malformed problem: %v", err)
	}
	r, err := SolveMILP(context.Background(), p, SolveOptions{MaxNodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	if r.X == nil {
		t.Fatalf("no feasible batch placement found (status %v)", r.Status)
	}
}

// TestNewRedundantTopology covers the functional-options constructor and
// its paper defaults.
func TestNewRedundantTopology(t *testing.T) {
	topo, err := NewRedundantTopology(Redundancy{X: 4, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.ProvisionedPower(); got != 9.6*MW {
		t.Fatalf("default provisioned = %v, want 9.6MW", got)
	}
	if len(topo.Pairs) != 18 {
		t.Fatalf("default pairs = %d, want 18", len(topo.Pairs))
	}

	topo, err = NewRedundantTopology(Redundancy{X: 4, Y: 3},
		WithUPSCapacity(1.2*MW), WithPairsPerCombination(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.ProvisionedPower(); got != 4.8*MW {
		t.Fatalf("provisioned = %v, want 4.8MW", got)
	}
	if len(topo.Pairs) != 6 {
		t.Fatalf("pairs = %d, want 6", len(topo.Pairs))
	}
}
