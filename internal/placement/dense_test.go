package placement

import (
	"math/rand"
	"sort"
	"testing"

	"flex/internal/milp"
	"flex/internal/workload"
)

// Dense references: the heuristics as they ran before the column view —
// every take scanning every constraint row, one three-key reflective sort
// per call — kept as what the view-based code must reproduce exactly.

func referenceRoundDownAndComplete(prob *milp.Problem, relaxed []float64, nc int) []float64 {
	n := len(relaxed)
	x := make([]float64, n)
	slack := make([]float64, len(prob.LP.Constraints))
	for i, c := range prob.LP.Constraints {
		slack[i] = c.RHS
	}
	take := func(j int) bool {
		for i, c := range prob.LP.Constraints {
			if j < len(c.Coeffs) && c.Coeffs[j] > slack[i]+1e-9 {
				return false
			}
		}
		x[j] = 1
		for i, c := range prob.LP.Constraints {
			if j < len(c.Coeffs) {
				slack[i] -= c.Coeffs[j]
			}
		}
		return true
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	rot := func(j int) int { return (j%nc + j/nc) % nc }
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if relaxed[ja] != relaxed[jb] {
			return relaxed[ja] > relaxed[jb]
		}
		if prob.LP.Objective[ja] != prob.LP.Objective[jb] {
			return prob.LP.Objective[ja] > prob.LP.Objective[jb]
		}
		return rot(ja) < rot(jb)
	})
	for _, j := range order {
		if relaxed[j] > 0.999 {
			take(j)
		}
	}
	for _, j := range order {
		if x[j] == 0 && relaxed[j] > 1e-9 {
			take(j)
		}
	}
	for _, j := range order {
		if x[j] == 0 {
			take(j)
		}
	}
	return x
}

func referenceWarmIncumbent(prob *milp.Problem, batch []workload.Deployment, nc int, prevLoad []float64) []float64 {
	if len(prevLoad) != nc || nc == 0 {
		return nil
	}
	nd := len(batch)
	x := make([]float64, nd*nc)
	slack := make([]float64, len(prob.LP.Constraints))
	for i, c := range prob.LP.Constraints {
		slack[i] = c.RHS
	}
	fits := func(j int) bool {
		for i, c := range prob.LP.Constraints {
			if j < len(c.Coeffs) && c.Coeffs[j] > slack[i]+1e-9 {
				return false
			}
		}
		return true
	}
	take := func(j int) {
		x[j] = 1
		for i, c := range prob.LP.Constraints {
			if j < len(c.Coeffs) {
				slack[i] -= c.Coeffs[j]
			}
		}
	}
	load := append([]float64(nil), prevLoad...)
	order := make([]int, nd)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return batch[order[a]].TotalPower() > batch[order[b]].TotalPower()
	})
	for _, di := range order {
		bestC := -1
		for ci := 0; ci < nc; ci++ {
			if !fits(di*nc + ci) {
				continue
			}
			if bestC < 0 || load[ci] < load[bestC]-1e-9 {
				bestC = ci
			}
		}
		if bestC >= 0 {
			take(di*nc + bestC)
			load[bestC] += float64(batch[di].TotalPower())
		}
	}
	return x
}

// denseCase is one batch ILP the view-based heuristics are compared on.
type denseCase struct {
	name  string
	prob  *milp.Problem
	batch []workload.Deployment
}

// denseCases: the paper room's batch ILP at three sizes (the last well
// over capacity), one with a row whose right-hand side is negative — the
// dense scan refuses every variable the row spans, zero coefficient or
// not — and one where that row is short, so it only spans the first
// variables.
func denseCases(t *testing.T) []denseCase {
	room := PaperRoom()
	var cases []denseCase
	for _, n := range []int{8, 24, 60} {
		batch := warmBatch(t, n)
		cases = append(cases, denseCase{name: "paper", prob: BatchILP(room, batch), batch: batch})
	}
	batch := warmBatch(t, 12)
	neg := BatchILP(room, batch)
	neg.LP.AddConstraint(make([]float64, neg.LP.NumVars()), -1)
	short := BatchILP(room, batch)
	short.LP.AddConstraint(make([]float64, 20), -1)
	return append(cases,
		denseCase{name: "negative-rhs", prob: neg, batch: batch},
		denseCase{name: "short-negative-rhs", prob: short, batch: batch})
}

func sameVector(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, dense %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: x[%d] = %v, dense %v", what, j, got[j], want[j])
		}
	}
}

// TestRoundDownMatchesDense: on random relaxations — mostly zeros and
// ones with a few fractions and many exact ties, like a node's LP
// solution — the completion heuristic on the column view returns the
// dense scan's vector.
func TestRoundDownMatchesDense(t *testing.T) {
	nc := len(CombosOf(PaperRoom().Topo))
	rng := rand.New(rand.NewSource(4))
	for _, c := range denseCases(t) {
		// One Packing for every trial, as a solver worker keeps one: Reset
		// must leave nothing of the previous vector behind.
		pk := milp.NewColumns(c.prob).NewPacking()
		ties := completionOrder(c.prob.LP.Objective, nc)
		placed := 0
		for trial := 0; trial < 40; trial++ {
			relaxed := make([]float64, c.prob.LP.NumVars())
			for j := range relaxed {
				switch rng.Intn(12) {
				case 0:
					relaxed[j] = 1
				case 1:
					relaxed[j] = float64(rng.Intn(5)) / 4
				case 2:
					relaxed[j] = rng.Float64()
				case 3:
					relaxed[j] = -1e-8 * float64(rng.Intn(2))
				}
			}
			pk.Reset()
			pk.RoundDownAndComplete(relaxed, ties)
			got := pk.X
			want := referenceRoundDownAndComplete(c.prob, relaxed, nc)
			sameVector(t, c.name, got, want)
			for _, v := range want {
				placed += int(v)
			}
		}
		if (placed == 0) != (c.name == "negative-rhs") {
			t.Errorf("%s: %d variables taken over all trials", c.name, placed)
		}
	}
}

// TestWarmIncumbentMatchesDense: the headroom-aware incumbent on the
// column view equals the dense scan's for flat, skewed and random load
// profiles.
func TestWarmIncumbentMatchesDense(t *testing.T) {
	nc := len(CombosOf(PaperRoom().Topo))
	rng := rand.New(rand.NewSource(6))
	for _, c := range denseCases(t) {
		cols := milp.NewColumns(c.prob)
		profiles := [][]float64{make([]float64, nc), {5e5, 0, 0, 3e5, 0, 1e5}}
		for k := 0; k < 6; k++ {
			p := make([]float64, nc)
			for i := range p {
				p[i] = 1e6 * rng.Float64()
			}
			profiles = append(profiles, p)
		}
		for _, prevLoad := range profiles {
			sameVector(t, c.name, WarmIncumbent(cols, c.batch, nc, prevLoad), referenceWarmIncumbent(c.prob, c.batch, nc, prevLoad))
		}
		if WarmIncumbent(cols, c.batch, nc, nil) != nil {
			t.Errorf("%s: a missing profile must yield nil", c.name)
		}
	}
}
