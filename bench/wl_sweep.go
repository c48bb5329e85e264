package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flex/internal/milp"
	"flex/internal/obs"
	"flex/internal/placement"
	"flex/internal/placement/online"
	"flex/internal/power"
	"flex/internal/workload"
)

// sweepWorkload is placement-sweep: Figure 9's policies on the paper
// room, one operation per (policy, shuffle).
type sweepWorkload struct {
	env
	room *placement.Room
	// traces[i] are repetition i's shuffled traces.
	traces [][][]workload.Deployment
	// solver counts branch-and-bound nodes and simplex pivots of the three
	// Flex-Offline policies (a benchmark-owned milp.Metrics).
	solver *milp.Metrics
}

const (
	polBRR    = "BalancedRoundRobin"
	polShort  = "Flex-Offline-Short"
	polLong   = "Flex-Offline-Long"
	polOracle = "Flex-Offline-Oracle"
	polOnline = "Online"
)

// placeSpan names each policy's Place span; the prefix is its layer.
var placeSpan = map[string]string{
	polBRR:    "placement.BalancedRoundRobin.Place",
	polShort:  "placement.FlexOffline.Place/short",
	polLong:   "placement.FlexOffline.Place/long",
	polOracle: "placement.FlexOffline.Place/oracle",
	polOnline: "online.Online.Place",
}

// sweepTraces generates repetition i's inputs: one §V-A trace, truncated,
// and its shuffles.
func sweepTraces(room *placement.Room, sc scale, seed int64, i int) ([][]workload.Deployment, error) {
	base, err := workload.GenerateTrace(workload.DefaultTraceConfig(room.Topo.ProvisionedPower()),
		rand.New(rand.NewSource(subseed(seed, streamTrace, i))))
	if err != nil {
		return nil, err
	}
	if n := sc.SweepDeployments; n > 0 && n < len(base) {
		base = base[:n]
	}
	out := make([][]workload.Deployment, sc.SweepShuffles)
	for s := range out {
		out[s] = workload.Shuffle(base, rand.New(rand.NewSource(subseed(seed, streamShuffle, i*sc.SweepShuffles+s))))
	}
	return out, nil
}

func (w *sweepWorkload) setup(ctx context.Context) error {
	w.room = placement.PaperRoom()
	w.traces = make([][][]workload.Deployment, w.reps+1)
	for i := range w.traces {
		tr, err := sweepTraces(w.room, w.sc, w.seed, i)
		if err != nil {
			return err
		}
		w.traces[i] = tr
	}
	w.solver = milp.NewMetrics(obs.NewRegistry())
	// The Online policy builds one admitter per trace; building one here
	// puts its construction cost where set-up is measured.
	_, err := online.NewAdmitter(w.room, online.Config{Seed: w.seed, SyncResolve: true})
	return err
}

func (w *sweepWorkload) inputs(d *digest) {
	d.add("nodes=%v", w.sc.SweepNodes)
	for _, rep := range w.traces {
		for _, tr := range rep {
			hashDeployments(d, tr)
		}
	}
}

func hashDeployments(d *digest, tr []workload.Deployment) {
	for _, dep := range tr {
		d.add("%d %s %d %d %.3f %.6f", dep.ID, dep.Workload, dep.Category, dep.Racks, float64(dep.PowerPerRack), dep.FlexPowerFraction)
	}
}

// policies builds repetition i's five policies.
func (w *sweepWorkload) policies(i int) []placement.Policy {
	short, long, oracle := placement.FlexOfflineShort(), placement.FlexOfflineLong(), placement.FlexOfflineOracle()
	short.MaxNodes, long.MaxNodes, oracle.MaxNodes = w.sc.SweepNodes[0], w.sc.SweepNodes[1], w.sc.SweepNodes[2]
	short.SolverMetrics, long.SolverMetrics, oracle.SolverMetrics = w.solver, w.solver, w.solver
	return []placement.Policy{
		placement.BalancedRoundRobin{}, short, long, oracle,
		online.Online{Config: online.Config{Seed: subseed(w.seed, streamScenario, i), SyncResolve: true}},
	}
}

func (w *sweepWorkload) rep(ctx context.Context, i int, res *result, fp *digest) (repStat, error) {
	var st repStat
	st.wall, st.alloc = timed(w.clk, func() { w.sweep(ctx, i, nil, &st, res, fp) })
	return st, nil
}

// traced is the same loop with a span around every public call.
func (w *sweepWorkload) traced(ctx context.Context, i int, tr *tracer, res *result) (time.Duration, error) {
	var st repStat
	start := w.clk.Now()
	w.sweep(ctx, i, tr, &st, res, newDigest())
	return w.clk.Now().Sub(start), nil
}

func (w *sweepWorkload) sweep(ctx context.Context, i int, tr *tracer, st *repStat, res *result, fp *digest) {
	nodes0, piv0 := w.solver.Nodes.Value(), w.solver.SimplexIterations.Value()
	for _, pol := range w.policies(i) {
		for s, trace := range w.traces[i] {
			st.ops++
			res.Attempted++
			tr.begin(placeSpan[pol.Name()])
			start := w.clk.Now()
			pl, err := pol.Place(ctx, w.room, trace)
			st.put("place_ms."+pol.Name(), float64(w.clk.Now().Sub(start).Microseconds())/1e3)
			tr.end()
			if err != nil {
				res.fail(1, "rep %d %s shuffle %d: %v", i, pol.Name(), s, err)
				continue
			}
			tr.begin("placement.Placement.Validate")
			err = pl.Validate()
			tr.end()
			if err != nil {
				res.fail(1, "rep %d %s shuffle %d: unsafe placement: %v", i, pol.Name(), s, err)
				continue
			}
			tr.begin("placement.Placement.StrandedFraction")
			stranded := pl.StrandedFraction() * 100
			tr.end()
			st.put("stranded."+pol.Name(), stranded)
			fp.add("%s %d/%d stranded=%.9f %s", pol.Name(), i, s, stranded, assignmentString(pl.Assignments))
		}
	}
	st.put("nodes", float64(w.solver.Nodes.Value()-nodes0))
	st.put("pivots", float64(w.solver.SimplexIterations.Value()-piv0))
	fp.add("nodes=%d pivots=%d", w.solver.Nodes.Value()-nodes0, w.solver.SimplexIterations.Value()-piv0)
}

// assignmentString renders an assignment map in ID order.
func assignmentString(a map[int]power.PDUPairID) string {
	ids := make([]int, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		buf = fmt.Appendf(buf, "%d:%d,", id, a[id])
	}
	return string(buf)
}

func (w *sweepWorkload) report(reps []repStat, res *result) {
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
	}
	res.Metrics["sweep_s"] = spread(walls, "s")
	short, on, oracle := fold(reps, "stranded."+polShort), fold(reps, "stranded."+polOnline), fold(reps, "stranded."+polOracle)
	if len(short) == 0 || len(on) == 0 || len(oracle) == 0 {
		return // every placement of a policy failed; already counted
	}
	res.Metrics["stranded_pct"] = exact(median(short), "%")
	gap := median(on) - median(oracle)
	res.Metrics["online_gap_pp"] = exact(gap, "pp")
	if gap > 10 {
		res.fail(res.Attempted-res.Failed, "online_gap_pp %.2f > 10", gap)
	}
}
