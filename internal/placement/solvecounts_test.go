package placement

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"flex/internal/milp"
	"flex/internal/obs"
)

// solveCounts is what one solve (or one placement's solves) did, exactly:
// the tree it walked, the pivots it spent, the bits of what it reached and
// where every deployment went.
type solveCounts struct {
	nodes, pivots int
	bits          uint64 // math.Float64bits of the objective (MW) or the stranded power (W)
	assignment    string
}

func (c solveCounts) String() string {
	return fmt.Sprintf("{%d, %d, %#x, %q}", c.nodes, c.pivots, c.bits, c.assignment)
}

// TestSolveCountsGolden pins the search itself, not just its answer: the
// batch-40 ILP the solver benchmarks use, truncated at 300 nodes from the
// greedy warm start, and the §V-A Short and Oracle placements of one
// trace must visit the same number of nodes, spend the same number of
// simplex pivots, and end on bit-identical objectives and assignments. A
// change that only makes a node cheaper leaves every constant alone; one
// that moves the search order, the LP's arithmetic or a heuristic's
// choices does not. Captured on amd64 (no fused multiply-add).
func TestSolveCountsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden counts were captured on amd64, not %s", runtime.GOARCH)
	}
	room := PaperRoom()
	nc := len(CombosOf(room.Topo))

	t.Run("batch-40", func(t *testing.T) {
		// BenchmarkSolverScaling's instance.
		prob := BatchILP(room, testTrace(t, room.Topo.ProvisionedPower(), 1)[:40])
		res, err := milp.SolveContext(context.Background(), prob, milp.Options{
			Deterministic: true, MaxNodes: 300, Incumbent: milp.GreedyBinaryIncumbent(prob),
		})
		if err != nil {
			t.Fatal(err)
		}
		combo := make([]byte, 40)
		for di := range combo {
			combo[di] = '-'
			for c := 0; c < nc; c++ {
				if res.X[di*nc+c] > 0.5 {
					combo[di] = byte('0' + c)
				}
			}
		}
		got := solveCounts{res.Nodes, res.SimplexIterations, math.Float64bits(res.Objective), string(combo)}
		want := solveCounts{300, 29511, 0x401a76c8b4395812, "13-00-0-00-0---03---0-55-55-5----25-0555"}
		if got != want {
			t.Errorf("got  %v\nwant %v", got, want)
		}
	})

	// On this trace Oracle spends its whole node budget, as it does in the
	// benchmark's placement sweep.
	trace := testTrace(t, room.Topo.ProvisionedPower(), 2)
	place := func(f FlexOffline) solveCounts {
		f.SolverMetrics = milp.NewMetrics(obs.NewRegistry())
		pl, err := f.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, 0, len(pl.Assignments))
		for id := range pl.Assignments {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var buf []byte
		for _, id := range ids {
			buf = fmt.Appendf(buf, "%d:%d,", id, pl.Assignments[id])
		}
		return solveCounts{
			int(f.SolverMetrics.Nodes.Value()), int(f.SolverMetrics.SimplexIterations.Value()),
			math.Float64bits(float64(pl.StrandedPower())), string(buf),
		}
	}
	t.Run("short", func(t *testing.T) {
		f := FlexOfflineShort()
		f.MaxNodes = 400
		want := solveCounts{403, 12593, 0x410f400000000000, "0:0,1:12,2:13,3:3,4:3,5:1,6:9,7:12,8:6,9:9,10:12,11:0,12:0,13:16,14:9,15:6,16:16,17:4,18:3,19:6,20:16,21:9,22:15,23:15,24:4,25:4,26:10,28:1,29:16,30:13,31:1,32:13,34:15,35:7,36:16,"}
		if got := place(f); got != want {
			t.Errorf("got  %v\nwant %v", got, want)
		}
	})
	t.Run("oracle", func(t *testing.T) {
		f := FlexOfflineOracle()
		f.MaxNodes = 1000
		want := solveCounts{1000, 70361, 0x40c7700000000000, "0:12,1:15,2:6,3:12,4:12,5:9,6:0,7:13,8:3,10:9,11:0,12:3,13:6,14:13,15:7,16:13,18:0,19:3,22:4,25:9,26:1,27:6,28:4,30:1,32:10,33:15,34:7,35:1,37:15,38:16,40:10,41:16,42:16,"}
		if got := place(f); got != want {
			t.Errorf("got  %v\nwant %v", got, want)
		}
	})
}
