package placement

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"flex/internal/lp"
	"flex/internal/milp"
	"flex/internal/power"
	"flex/internal/workload"
)

// FlexOffline is the paper's ILP placement policy (§IV-B). It batches the
// short-term demand by BatchFraction of the room's provisioned power and,
// per batch, solves the placement ILP: maximize placed power (equivalently,
// minimize stranded power, Eq. 5) subject to single placement (Eq. 1),
// normal-operation capacity (Eq. 2), and failover safety under maximal
// shaving for every UPS failure (Eq. 4).
//
// Because all PDU-pairs connected to the same UPS combination are
// electrically interchangeable, the ILP assigns deployments to UPS
// combinations; deployments are then spread across that combination's
// actual PDU-pairs best-fit by space. After each batch a local-search pass
// rebalances placements across combinations (without changing the placed
// power) to minimize the throttling-imbalance metric — the soft constraint
// the paper mentions including in its evaluation.
type FlexOffline struct {
	// BatchFraction is the demand horizon as a fraction of provisioned
	// power: 0.33 for Flex-Offline-Short, 0.66 for Flex-Offline-Long; any
	// value >= the trace's total demand fraction behaves like
	// Flex-Offline-Oracle. Must be positive.
	BatchFraction float64
	// MaxNodes bounds each batch's branch-and-bound node count. Node
	// budgets are deterministic, so two runs with the same trace produce
	// the same placement. Zero means 1500.
	MaxNodes int
	// Workers is the branch-and-bound worker count per ILP solve (zero
	// means runtime.NumCPU()). The solver explores the same tree at any
	// worker count, so the placement is identical for any Workers value.
	Workers int
	// SkipBalanceRefinement disables the post-batch imbalance local search
	// (used by ablation benchmarks).
	SkipBalanceRefinement bool
	// Label overrides Name() (e.g. "Flex-Offline-Short").
	Label string
	// SolverMetrics, when non-nil, accumulates branch-and-bound statistics
	// (nodes, simplex pivots, limit hits) across the per-batch ILP solves.
	SolverMetrics *milp.Metrics
}

// FlexOfflineShort returns the paper's Flex-Offline-Short configuration
// (batches ≈33% of provisioned power).
func FlexOfflineShort() FlexOffline {
	return FlexOffline{BatchFraction: 0.33, Label: "Flex-Offline-Short"}
}

// FlexOfflineLong returns Flex-Offline-Long (≈66% batches).
func FlexOfflineLong() FlexOffline {
	return FlexOffline{BatchFraction: 0.66, Label: "Flex-Offline-Long"}
}

// FlexOfflineOracle returns Flex-Offline-Oracle (the entire trace in one
// batch).
func FlexOfflineOracle() FlexOffline {
	return FlexOffline{BatchFraction: 10, Label: "Flex-Offline-Oracle"}
}

// Name implements Policy.
func (f FlexOffline) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return fmt.Sprintf("Flex-Offline(%.2f)", f.BatchFraction)
}

// Combo is one UPS combination with its member PDU-pairs. All pairs of a
// combination are electrically interchangeable, so both the batch ILP and
// the online admitter assign deployments to combos first and spread across
// the member pairs second.
type Combo struct {
	UPSes [2]power.UPSID
	Pairs []power.PDUPairID
}

// CombosOf groups a topology's PDU-pairs by UPS combination, in order of
// first appearance in topo.Pairs. The ordering is what BatchILP's decision
// variables and WarmIncumbent's load profiles are indexed by.
func CombosOf(topo *power.Topology) []Combo {
	byKey := map[[2]power.UPSID]*Combo{}
	var order [][2]power.UPSID
	for _, p := range topo.Pairs {
		key := p.UPSes
		c, ok := byKey[key]
		if !ok {
			c = &Combo{UPSes: key}
			byKey[key] = c
			order = append(order, key)
		}
		c.Pairs = append(c.Pairs, p.ID)
	}
	out := make([]Combo, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	return out
}

// Place implements Policy. Successive batch ILPs are warm-started with the
// previous batch's solution: its per-combination load profile seeds a
// headroom-aware greedy incumbent for the next solve, so later batches
// start pruning from a near-final bound instead of from scratch.
func (f FlexOffline) Place(ctx context.Context, room *Room, trace []workload.Deployment) (*Placement, error) {
	if f.BatchFraction <= 0 {
		return nil, fmt.Errorf("placement: FlexOffline.BatchFraction must be positive")
	}
	maxNodes := f.MaxNodes
	if maxNodes == 0 {
		maxNodes = 1500
	}
	s := newState(room)
	combos := CombosOf(room.Topo)
	batchPow := power.Watts(f.BatchFraction * float64(room.Topo.ProvisionedPower()))

	var batch []workload.Deployment
	var batchSum power.Watts
	var prevLoad []float64 // previous batch's per-combo placed power (warm start)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		load, err := f.solveBatch(ctx, s, combos, batch, maxNodes, prevLoad)
		if err != nil {
			return err
		}
		prevLoad = load
		if !f.SkipBalanceRefinement {
			// Interim passes spread load only (imbalance weight 0): the
			// throttling-imbalance metric is a property of the final
			// placement, and folding it in early creates local optima
			// that block the spreading moves later batches depend on.
			f.refineBalance(ctx, s, 0)
		}
		batch, batchSum = nil, 0
		return nil
	}
	for _, d := range trace {
		batch = append(batch, d)
		batchSum += d.TotalPower()
		if batchSum >= batchPow {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if !f.SkipBalanceRefinement {
		// Final global passes: spread first, then minimize the residual
		// throttling-imbalance metric across all UPS failure combinations.
		f.refineBalance(ctx, s, 0)
		f.refineBalance(ctx, s, 100)
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return s.result(trace), nil
}

// BatchILP builds the paper's Eq. 1–5 placement ILP for one batch of
// deployments against an empty room: binary variables x[d*nc+c] choose a
// UPS combination per deployment, maximizing placed power subject to
// single placement, normal-operation headroom, failover safety under
// maximal shaving, space, and the workload-diversity reserve. It exposes
// the exact problem FlexOffline solves per batch, for benchmarks, solver
// experiments and the online admitter's warm re-solve.
func BatchILP(room *Room, batch []workload.Deployment) *milp.Problem {
	return batchILP(newState(room), CombosOf(room.Topo), batch)
}

// batchILP builds the batch ILP against the current committed state: a
// 0/1 packing program (milp.Problem), every constraint ≤ with non-negative
// coefficients, so rounding a relaxation down is always feasible. Eq. 1's
// rows bound every variable at 1, so there are no bound rows.
func batchILP(s *state, combos []Combo, batch []workload.Deployment) *milp.Problem {
	topo, o := s.room.Topo, s.occ
	nd, nc := len(batch), len(combos)
	nVars := nd * nc // binary placement vars x[d*nc+c]

	const mw = 1e6 // scale watts → MW for numerical conditioning
	prob := &milp.Problem{LP: lp.Problem{Objective: make([]float64, nVars)}}
	for di, d := range batch {
		for c := 0; c < nc; c++ {
			prob.LP.Objective[di*nc+c] = float64(d.TotalPower()) / mw
		}
	}
	// Eq. 1: each deployment placed at most once.
	for di := range batch {
		c := make([]float64, nVars)
		for ci := 0; ci < nc; ci++ {
			c[di*nc+ci] = 1
		}
		prob.LP.AddConstraint(c, 1)
	}
	// safetyRow is the load on UPS u while the UPSes in out are out of
	// service, as a function of the placement variables: each deployment's
	// pow weighted by power.FailoverWeight of its combo. nonzero reports
	// whether any coefficient is.
	safetyRow := func(u power.UPSID, out power.UPSSet, pow func(workload.Deployment) float64) (c []float64, nonzero bool) {
		c = make([]float64, nVars)
		for di, d := range batch {
			p := pow(d) / mw
			if p == 0 {
				continue
			}
			for ci, cb := range combos {
				if w := power.FailoverWeight(cb.UPSes[0], cb.UPSes[1], u, out); w > 0 {
					c[di*nc+ci] = w * p
					nonzero = true
				}
			}
		}
		return c, nonzero
	}
	// Eq. 2: normal-operation headroom per UPS (nothing out), over
	// allocated power.
	for u := range topo.UPSes {
		uu := power.UPSID(u)
		c, _ := safetyRow(uu, 0, func(d workload.Deployment) float64 { return float64(d.TotalPower()) })
		prob.LP.AddConstraint(c, float64(o.safety.NormalHeadroom(uu))/mw)
	}
	// Eq. 4: failover headroom per (failed, survivor), over post-shave power.
	for f := range topo.UPSes {
		ff := power.UPSID(f)
		for u := range topo.UPSes {
			uu := power.UPSID(u)
			if uu == ff {
				continue
			}
			if c, nonzero := safetyRow(uu, power.SetOf(ff), func(d workload.Deployment) float64 { return float64(s.room.CapPow(d)) }); nonzero {
				prob.LP.AddConstraint(c, float64(o.safety.FailoverHeadroom(ff, uu))/mw)
			}
		}
	}
	// Space per combo (sum of its pairs' remaining slots).
	for ci, cb := range combos {
		c := make([]float64, nVars)
		free := 0
		for _, pid := range cb.Pairs {
			free += o.slotsLeft[pid]
		}
		for di, d := range batch {
			c[di*nc+ci] = float64(d.Racks)
		}
		prob.LP.AddConstraint(c, float64(free))
	}
	// Workload-diversity headroom: cumulative CapPow within the failover
	// budget, so that shave-ability never becomes the binding constraint
	// for future demand.
	c := make([]float64, nVars)
	any := false
	for di, d := range batch {
		capPow := float64(s.room.CapPow(d)) / mw
		if capPow == 0 {
			continue
		}
		for ci := 0; ci < nc; ci++ {
			c[di*nc+ci] = capPow
			any = true
		}
	}
	if any {
		prob.LP.AddConstraint(c, float64(o.capBudget-o.placedCapPow)/mw)
	}
	// PDU-pair ratings (aggregate per combo; the pair-level check happens
	// again at commit time through canPlace).
	if s.room.PairCapacity > 0 {
		for ci, cb := range combos {
			c := make([]float64, nVars)
			var free float64
			for _, pid := range cb.Pairs {
				free += float64(s.room.PairCapacity-o.pairPow[pid]) / mw
			}
			for di, d := range batch {
				c[di*nc+ci] = float64(d.TotalPower()) / mw
			}
			prob.LP.AddConstraint(c, free)
		}
	}
	// Cooling (aggregate), if configured.
	if s.room.CoolingCFM > 0 {
		c := make([]float64, nVars)
		for di, d := range batch {
			for ci := 0; ci < nc; ci++ {
				c[di*nc+ci] = float64(d.TotalPower()) * s.room.CFMPerWatt / mw
			}
		}
		rhs := (s.room.CoolingCFM - float64(o.placedPow)*s.room.CFMPerWatt) / mw
		prob.LP.AddConstraint(c, rhs)
	}
	return prob
}

// solveBatch builds and solves the batch ILP and commits the resulting
// placements. The branch-and-bound is warm-started with the better of a
// greedy incumbent and a headroom-aware incumbent seeded from the previous
// batch's per-combo loads, and given a round-down-plus-completion
// heuristic that each solver worker runs in its own Packing. It returns
// this batch's per-combo placed power for the next batch's warm start.
func (f FlexOffline) solveBatch(ctx context.Context, s *state, combos []Combo, batch []workload.Deployment, maxNodes int, prevLoad []float64) ([]float64, error) {
	// The paper stops Gurobi after 5 minutes. MaxNodes is normally the
	// binding limit; the deadline is a safety net, and the solver treats
	// it as a budget: the best incumbent so far, no error.
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	nc := len(combos)
	prob := batchILP(s, combos, batch)
	cols := milp.NewColumns(prob)
	ties := completionOrder(prob.LP.Objective, nc)
	heuristic := func(relaxed []float64, pk *milp.Packing) bool {
		pk.RoundDownAndComplete(relaxed, ties)
		return true
	}
	incumbent := WarmStart(cols, batch, nc, prevLoad)
	res, err := milp.SolveContext(ctx, prob, milp.Options{
		Workers:   f.Workers,
		MaxNodes:  maxNodes,
		Incumbent: incumbent,
		Heuristic: heuristic,
		Metrics:   f.SolverMetrics,
		// The placement objective is in MW; differences below ~0.1% of a
		// batch are far below a single deployment, so a 0.1% gap trades
		// no placement quality for a large node-count reduction.
		RelGap: 0.001,
	})
	if err != nil {
		return nil, err
	}
	var x []float64
	switch res.Status {
	case milp.Optimal, milp.Feasible:
		x = res.X
	}
	if x == nil {
		// No incumbent at all (cannot happen with a greedy warm start, but
		// stay defensive): greedy per-deployment placement.
		f.greedyBatch(s, batch)
		return nil, nil
	}
	// Commit: distribute the chosen deployments of each combo across its
	// PDU-pairs. The ILP's space constraint is aggregate per combo, so an
	// exact bin-packing search recovers a pair-level assignment whenever
	// one exists; only genuinely unpackable leftovers fall back.
	byCombo := make([][]workload.Deployment, nc)
	load := make([]float64, nc)
	for di, d := range batch {
		for ci := 0; ci < nc; ci++ {
			if x[di*nc+ci] > 0.5 {
				byCombo[ci] = append(byCombo[ci], d)
				load[ci] += float64(d.TotalPower())
				break
			}
		}
	}
	for ci, ds := range byCombo {
		f.commitCombo(s, combos[ci], ds)
	}
	return load, nil
}

// WarmStart returns the incumbent a batch ILP's branch and bound should
// start from: the better of the plain greedy incumbent and WarmIncumbent's
// headroom-aware one (nil when neither exists). cols is the column view of
// the problem BatchILP built for batch; both incumbents are built on it.
func WarmStart(cols *milp.Columns, batch []workload.Deployment, nc int, prevLoad []float64) []float64 {
	prob := cols.Problem()
	incumbent := cols.GreedyBinaryIncumbent()
	if warm := WarmIncumbent(cols, batch, nc, prevLoad); warm != nil {
		if incumbent == nil || prob.ObjectiveValue(warm) > prob.ObjectiveValue(incumbent) {
			incumbent = warm
		}
	}
	return incumbent
}

// WarmIncumbent builds a feasible 0/1 warm start for a batch ILP (cols is
// the column view of the problem BatchILP built for the same batch and
// combo ordering) from a per-combo load profile: deployments (largest
// first) go to the feasible combination carrying the least cumulative
// power, so the incumbent inherits the spread a previous solve (or the
// live committed state) converged to instead of piling onto the first
// combination the way a plain greedy does. Returns nil when the profile is
// missing or stale (its length does not match nc). The result is always
// feasible — deployments that fit nowhere are simply left unplaced, so a
// batch larger than the remaining capacity yields a partial (possibly
// all-zero) incumbent rather than an infeasible one.
func WarmIncumbent(cols *milp.Columns, batch []workload.Deployment, nc int, prevLoad []float64) []float64 {
	if len(prevLoad) != nc || nc == 0 {
		return nil
	}
	nd := len(batch)
	pk := cols.NewPacking()
	load := append([]float64(nil), prevLoad...)
	order := make([]int, nd)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(batch[b].TotalPower(), batch[a].TotalPower())
	})
	for _, di := range order {
		bestC := -1
		for ci := 0; ci < nc; ci++ {
			if !pk.Fits(di*nc + ci) {
				continue
			}
			if bestC < 0 || load[ci] < load[bestC]-1e-9 {
				bestC = ci
			}
		}
		if bestC >= 0 {
			pk.Take(di*nc + bestC)
			load[bestC] += float64(batch[di].TotalPower())
		}
	}
	return pk.X
}

// commitCombo places the deployments assigned to one combo onto its pairs,
// using an exact bin-packing search first and greedy fallbacks after.
func (f FlexOffline) commitCombo(s *state, cb Combo, ds []workload.Deployment) {
	if len(ds) == 0 {
		return
	}
	sorted := append([]workload.Deployment(nil), ds...)
	slices.SortStableFunc(sorted, func(a, b workload.Deployment) int { return cmp.Compare(b.Racks, a.Racks) })
	bins := make([]int, len(cb.Pairs))
	for i, pid := range cb.Pairs {
		bins[i] = s.occ.slotsLeft[pid]
	}
	var rest []workload.Deployment
	if assign, ok := packBins(sorted, bins); ok {
		for i, d := range sorted {
			// The ILP guaranteed combo-level power feasibility, but guard
			// against accumulated rounding by re-checking each placement;
			// anything rejected goes through the greedy fallback below.
			if s.canPlace(d, cb.Pairs[assign[i]]) {
				s.place(d, cb.Pairs[assign[i]])
			} else {
				rest = append(rest, d)
			}
		}
	} else {
		rest = sorted
	}
	for _, d := range rest {
		if !f.placeInCombo(s, cb, d) {
			f.placeAnywhere(s, d)
		}
	}
}

// packBins searches for an assignment of every item (by rack count) to a
// bin with sufficient capacity, returning assign[i] = bin of items[i]. The
// backtracking search prunes symmetric bin states and caps its effort, so
// it stays fast for the ≤ a-few-dozen items per combo that occur here.
func packBins(items []workload.Deployment, bins []int) ([]int, bool) {
	assign := make([]int, len(items))
	free := append([]int(nil), bins...)
	steps := 0
	const maxSteps = 200000
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(items) {
			return true
		}
		if steps++; steps > maxSteps {
			return false
		}
		seen := make(map[int]bool, len(free))
		for b := range free {
			if free[b] < items[i].Racks || seen[free[b]] {
				continue
			}
			seen[free[b]] = true // identical residual capacity ⇒ symmetric
			free[b] -= items[i].Racks
			assign[i] = b
			if try(i + 1) {
				return true
			}
			free[b] += items[i].Racks
		}
		return false
	}
	if try(0) {
		return assign, true
	}
	return nil, false
}

// completionOrder is the order the batch ILP's completion heuristic
// (milp.Packing.RoundDownAndComplete) offers variables of equal
// relaxation value in: objective descending, then combo index rotated by
// deployment index, so that an unconstrained batch is spread rather than
// piled onto combo 0 — concentrated placements poison later batches even
// when they are "optimal" now. It depends on the problem
// alone, so it is sorted once per batch ILP, not once per node.
func completionOrder(obj []float64, nc int) []int {
	order := make([]int, len(obj))
	for j := range order {
		order[j] = j
	}
	rot := func(j int) int { return (j%nc + j/nc) % nc }
	slices.SortStableFunc(order, func(ja, jb int) int {
		if obj[ja] != obj[jb] {
			return cmp.Compare(obj[jb], obj[ja])
		}
		return cmp.Compare(rot(ja), rot(jb))
	})
	return order
}

// placeInCombo places d on the combo's best-fit pair (Occupancy.BestPair)
// once the room and the combo's UPSes take it. Returns false when no pair
// of the combo fits.
func (f FlexOffline) placeInCombo(s *state, cb Combo, d workload.Deployment) bool {
	pow, capPow := d.TotalPower(), s.room.CapPow(d)
	o := s.occ
	if o.RoomLimit(o.placedPow+pow, o.placedCapPow+capPow) != Fits ||
		o.UPSLimit(cb.UPSes[0], cb.UPSes[1], pow, capPow) != Fits {
		return false
	}
	pid, lim := o.BestPair(cb.Pairs, d.Racks, pow)
	if lim != Fits {
		return false
	}
	s.place(d, pid)
	return true
}

// placeAnywhere places d on the first feasible pair of any combo.
func (f FlexOffline) placeAnywhere(s *state, d workload.Deployment) bool {
	for pid := range s.room.Topo.Pairs {
		if s.canPlace(d, power.PDUPairID(pid)) {
			s.place(d, power.PDUPairID(pid))
			return true
		}
	}
	return false
}

// greedyBatch is the fallback when the ILP finds no incumbent in time:
// largest deployments first onto the first feasible pair.
func (f FlexOffline) greedyBatch(s *state, batch []workload.Deployment) {
	sorted := append([]workload.Deployment(nil), batch...)
	slices.SortStableFunc(sorted, func(a, b workload.Deployment) int {
		return cmp.Compare(b.TotalPower(), a.TotalPower())
	})
	for _, d := range sorted {
		f.placeAnywhere(s, d)
	}
}

// balanceScore is the hill-climbing objective for refineBalance. The
// dominant term is the throttling-imbalance metric itself; the quadratic
// terms provide a gradient even while nothing is overloaded yet, pushing
// placements toward evenly spread failover and normal loads — which keeps
// headroom balanced for future batches and is what lets large-horizon
// batching realize its advantage.
func (s *state) balanceScore(imbalanceWeight float64) float64 {
	topo := s.room.Topo
	score := imbalanceWeight * s.imbalance()
	for f := range topo.UPSes {
		for u := range topo.UPSes {
			if u == f {
				continue
			}
			cap := float64(topo.UPSes[u].Capacity)
			ff, uu := power.UPSID(f), power.UPSID(u)
			// Non-SR load balance tracks the paper's imbalance metric;
			// post-shave balance preserves Eq. 4 headroom for future
			// batches — the two differ when capable-heavy and
			// non-cap-able-heavy combos coexist, and both matter.
			util := float64(s.occ.safety.Failover(ff, uu)+s.throttle.Failover(ff, uu)) / cap
			shaved := float64(s.occ.safety.Failover(ff, uu)) / cap
			score += util*util + 2*shaved*shaved
		}
	}
	for u := range topo.UPSes {
		util := float64(s.occ.safety.Normal(power.UPSID(u))) / float64(topo.UPSes[u].Capacity)
		score += util * util
	}
	return score
}

// refineBalance hill-climbs balanceScore by relocating placed deployments
// between PDU-pairs (placed power is unchanged; every move re-validates
// all constraints through the state). The search stops at a local optimum,
// after a bounded number of sweeps, or — since refinement is optional
// polish — as soon as ctx is done.
func (f FlexOffline) refineBalance(ctx context.Context, s *state, imbalanceWeight float64) {
	const maxSweeps = 12
	ids := make([]int, 0, len(s.placed))
	for id := range s.placed {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	byID := s.deps
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if ctx.Err() != nil {
			return
		}
		improved := false
		cur := s.balanceScore(imbalanceWeight)
		for _, id := range ids {
			d, ok := byID[id]
			if !ok {
				continue
			}
			from := s.placed[id]
			token := s.vacate(d, from)
			bestPid, bestVal := from, cur
			for pid := range s.room.Topo.Pairs {
				p := power.PDUPairID(pid)
				if !s.canPlace(d, p) {
					continue
				}
				s.occupy(d, p, nil)
				v := s.balanceScore(imbalanceWeight)
				s.vacate(d, p)
				if v < bestVal-1e-9 {
					bestPid, bestVal = p, v
				}
			}
			if bestPid == from {
				s.occupy(d, from, token)
			} else {
				s.occupy(d, bestPid, nil)
				s.placed[id] = bestPid
				improved = true
				cur = bestVal
			}
		}
		if s.swapSweep(ids, byID, imbalanceWeight) {
			improved = true
		}
		if !improved {
			return
		}
	}
}

// swapSweep tries exchanging the pairs of every two placed deployments —
// swaps can rebalance workload categories across UPS combinations when no
// single relocation improves the score (single moves get stuck once all
// pairs are nearly full). Returns whether any swap was applied.
func (s *state) swapSweep(ids []int, byID map[int]workload.Deployment, imbalanceWeight float64) bool {
	improved := false
	cur := s.balanceScore(imbalanceWeight)
	for i := 0; i < len(ids); i++ {
		d1, ok := byID[ids[i]]
		if !ok {
			continue
		}
		for j := i + 1; j < len(ids); j++ {
			d2, ok := byID[ids[j]]
			if !ok {
				continue
			}
			p1, ok1 := s.placed[d1.ID]
			p2, ok2 := s.placed[d2.ID]
			if !ok1 || !ok2 || p1 == p2 {
				continue
			}
			// Swapping identical electrical footprints cannot help.
			if d1.Category == d2.Category && d1.TotalPower() == d2.TotalPower() {
				continue
			}
			tok1 := s.vacate(d1, p1)
			tok2 := s.vacate(d2, p2)
			if s.canPlace(d1, p2) {
				s.occupy(d1, p2, nil)
				if s.canPlace(d2, p1) {
					s.occupy(d2, p1, nil)
					if v := s.balanceScore(imbalanceWeight); v < cur-1e-9 {
						cur = v
						improved = true
						s.placed[d1.ID], s.placed[d2.ID] = p2, p1
						continue // keep the swap
					}
					s.vacate(d2, p1)
				}
				s.vacate(d1, p2)
			}
			s.occupy(d1, p1, tok1)
			s.occupy(d2, p2, tok2)
		}
	}
	return improved
}
