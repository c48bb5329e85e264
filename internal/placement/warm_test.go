package placement

import (
	"math/rand"
	"testing"

	"flex/internal/milp"
	"flex/internal/power"
	"flex/internal/workload"
)

// warmBatch builds a reproducible batch of n deployments for the paper
// room.
func warmBatch(t *testing.T, n int) []workload.Deployment {
	t.Helper()
	room := PaperRoom()
	trace, err := workload.GenerateTrace(
		workload.DefaultTraceConfig(room.Topo.ProvisionedPower()), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for len(trace) < n {
		clone := trace[len(trace)%len(trace)]
		clone.ID = 10_000 + len(trace)
		trace = append(trace, clone)
	}
	return trace[:n]
}

// assertFeasible checks an incumbent against every ILP constraint.
func assertFeasible(t *testing.T, prob *milp.Problem, x []float64) {
	t.Helper()
	for i, c := range prob.LP.Constraints {
		sum := 0.0
		for j, coeff := range c.Coeffs {
			sum += coeff * x[j]
		}
		if sum > c.RHS+1e-6 {
			t.Fatalf("constraint %d violated: %.6f > %.6f", i, sum, c.RHS)
		}
	}
}

// TestWarmIncumbentStaleProfile: a missing or stale per-combo profile
// (wrong length for the combo count) yields nil — the caller falls back
// to the plain greedy incumbent.
func TestWarmIncumbentStaleProfile(t *testing.T) {
	room := PaperRoom()
	batch := warmBatch(t, 8)
	nc := len(CombosOf(room.Topo))
	prob := BatchILP(room, batch)
	if x := WarmIncumbent(milp.NewColumns(prob), batch, nc, nil); x != nil {
		t.Fatal("nil profile should yield a nil incumbent")
	}
	stale := make([]float64, nc-1) // e.g. a profile recorded before a topology change
	if x := WarmIncumbent(milp.NewColumns(prob), batch, nc, stale); x != nil {
		t.Fatal("stale (wrong-length) profile should yield a nil incumbent")
	}
	if x := WarmIncumbent(milp.NewColumns(prob), batch, 0, nil); x != nil {
		t.Fatal("nc == 0 should yield a nil incumbent")
	}
}

// TestWarmIncumbentFeasibleAndWarm: with a fresh profile the incumbent is
// feasible, places something, and respects the warm profile — combos the
// profile marks as heavily loaded are avoided while lighter ones have
// room.
func TestWarmIncumbentFeasibleAndWarm(t *testing.T) {
	room := PaperRoom()
	batch := warmBatch(t, 8)
	nc := len(CombosOf(room.Topo))
	prob := BatchILP(room, batch)
	prevLoad := make([]float64, nc)
	prevLoad[0] = 100 * float64(power.MW) // combo 0 saturated in the profile
	x := WarmIncumbent(milp.NewColumns(prob), batch, nc, prevLoad)
	if x == nil {
		t.Fatal("fresh profile should yield an incumbent")
	}
	assertFeasible(t, prob, x)
	placed, onCombo0 := 0, 0
	for di := range batch {
		for c := 0; c < nc; c++ {
			if x[di*nc+c] > 0.5 {
				placed++
				if c == 0 {
					onCombo0++
				}
			}
		}
	}
	if placed == 0 {
		t.Fatal("incumbent placed nothing on an empty room")
	}
	if onCombo0 != 0 {
		t.Fatalf("%d deployments landed on the profile's saturated combo", onCombo0)
	}
}

// TestWarmIncumbentOversizedBatch: a batch demanding far more than the
// room yields a partial incumbent — still feasible, with the overflow
// left unplaced rather than crammed in.
func TestWarmIncumbentOversizedBatch(t *testing.T) {
	room := PaperRoom()
	batch := warmBatch(t, 120) // ~3x the room's demand
	nc := len(CombosOf(room.Topo))
	prob := BatchILP(room, batch)
	x := WarmIncumbent(milp.NewColumns(prob), batch, nc, make([]float64, nc))
	if x == nil {
		t.Fatal("oversized batch should still yield an incumbent")
	}
	assertFeasible(t, prob, x)
	placed := 0
	for _, v := range x {
		if v > 0.5 {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("oversized batch should still place a prefix")
	}
	if placed == len(batch) {
		t.Fatal("placing 3x the room's demand cannot be feasible")
	}
}

// TestWarmIncumbentNothingFits: when no deployment fits at all (each one
// alone exceeds every combo), the incumbent is all-zero — feasible by
// construction, never nil, so the solver still starts with a valid bound.
func TestWarmIncumbentNothingFits(t *testing.T) {
	room := EmulationRoom()
	nc := len(CombosOf(room.Topo))
	batch := []workload.Deployment{
		{ID: 1, Workload: "goliath", Category: workload.NonRedundantNonCapable,
			Racks: 61, PowerPerRack: 50 * power.KW, FlexPowerFraction: 1},
		{ID: 2, Workload: "goliath", Category: workload.NonRedundantNonCapable,
			Racks: 61, PowerPerRack: 50 * power.KW, FlexPowerFraction: 1},
	}
	prob := BatchILP(room, batch)
	x := WarmIncumbent(milp.NewColumns(prob), batch, nc, make([]float64, nc))
	if x == nil {
		t.Fatal("unplaceable batch should yield an all-zero incumbent, not nil")
	}
	assertFeasible(t, prob, x)
	for j, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want all-zero", j, v)
		}
	}
	if obj := prob.ObjectiveValue(x); obj != 0 {
		t.Fatalf("all-zero incumbent has objective %v", obj)
	}
}
