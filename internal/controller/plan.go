// Package controller implements Flex-Online (paper §IV-D): highly
// available controllers that watch the UPS power telemetry for overdraw
// and, when it appears, select and enforce the minimum-impact set of
// corrective actions — shutting down software-redundant racks and
// throttling non-redundant cap-able racks to their flex power — to bring
// every UPS back below its rated capacity within the overload tolerance
// window. The selection policy is the paper's Algorithm 1, driven by
// per-workload impact functions.
package controller

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/workload"
)

// ActionKind is the corrective action type (Algorithm 1 line 8).
type ActionKind int

// Action kinds.
const (
	// Shutdown powers off a software-redundant rack.
	Shutdown ActionKind = iota
	// Throttle caps a non-redundant cap-able rack at its flex power.
	Throttle
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	if k == Shutdown {
		return "shutdown"
	}
	return "throttle"
}

// ManagedRack is one rack under Flex-Online control.
type ManagedRack struct {
	ID       string
	Workload string
	Category workload.Category
	// Pair is the PDU-pair feeding the rack.
	Pair power.PDUPairID
	// Allocated is the rack's provisioned power.
	Allocated power.Watts
	// FlexPower is the lowest permissible cap for cap-able racks (0 for
	// software-redundant, Allocated for non-cap-able).
	FlexPower power.Watts
	// Priority orders PickRack within a workload: lower values are acted
	// on first ("returns a rack... either randomly or as prioritized by
	// the workload", §IV-D). Racks with equal priority order by ID.
	Priority int
}

// PlannedAction is one corrective action chosen by Algorithm 1.
type PlannedAction struct {
	Rack      string
	Workload  string
	Pair      power.PDUPairID // the rack's PDU-pair, whose UPSes the action relieves
	Kind      ActionKind
	Recovered power.Watts // estimated power recovered (R_r)
	Impact    float64     // workload impact after this action (I_w)
	CapTarget power.Watts // throttle target (flex power); 0 for shutdown
}

// PlanInput is the snapshot Algorithm 1 works from.
type PlanInput struct {
	Topo  *power.Topology
	Racks []ManagedRack
	// UPSPower is the latest measured power per UPS (line 2).
	UPSPower []power.Watts
	// RackPower is the latest measured power per rack ID (line 3); racks
	// without a reading are estimated at their allocated power (the safe,
	// conservative assumption).
	RackPower map[string]power.Watts
	// Inactive marks UPSes currently out of service: their pairs' loads
	// rest entirely on the partner UPS. Use InferInactiveUPSes when the
	// set is unknown.
	Inactive map[power.UPSID]bool
	// Scenario supplies the impact functions.
	Scenario impact.Scenario
	// Buffer is the safety margin below each UPS limit that the plan must
	// reach (line 4's buffer, §IV-D: "to account for mis-estimation").
	Buffer power.Watts
	// Acted lists racks already acted on (for multi-round planning);
	// they are not candidates again.
	Acted map[string]bool
}

// PlanContext is the paper's Algorithm 1: repeatedly pick, across
// workloads, the candidate rack whose action has the least workload impact
// (ties: most recovered power, then rack ID) until the estimated power of
// every UPS is below its limit minus the buffer. It returns the chosen
// actions and whether the target was reached (insufficient=false) — when
// every shaveable rack is exhausted and some UPS is still over by more
// than power.CapacityTolerance, the slack Eq. 4 itself allows a placement,
// insufficient is true and the actions still help but cannot guarantee
// safety.
//
// ctx is checked once per greedy iteration. When it expires mid-plan the
// actions chosen so far are returned together with insufficient=true and
// context.Cause(ctx): a truncated plan still sheds real power, so callers
// should enforce it rather than discard it (shedding less than needed
// beats shedding nothing inside the overload tolerance window).
//
// PlanContext is the one-shot form: it prepares in.Racks and plans once. A
// caller that plans over one rack set again and again holds a Planner.
func PlanContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	return NewPlanner(in.Topo, in.Racks, in.Scenario).Plan(ctx, in, nil)
}

// Planner is Algorithm 1 prepared for one rack set: everything the
// algorithm derives from the topology, the racks and the impact scenario
// alone — PickRack order, the workloads with their impact functions and
// sizes, each workload's queue of actionable racks — is computed once by
// NewPlanner, so that Plan does only the work that depends on the moment.
// The planner keeps a private copy of the racks (later changes to the
// caller's slice are not seen) and owns the scratch Plan runs on, so it is
// not safe for concurrent use.
type Planner struct {
	topo *power.Topology
	// racks is in PickRack order: (priority, ID), stable over input order.
	racks []ManagedRack
	// workloadOf[i] indexes workloads for racks[i].
	workloadOf []int32
	workloads  []plannedWorkload // in name order

	// Scratch, reset by every Plan.
	est      []power.Watts // per UPS: estimated power as actions accrue
	affected []int         // per workload: racks acted on, before and by this plan
	next     []int         // per workload: cursor into queue
	cands    []candidate   // per workload: see propose
}

// plannedWorkload is one workload as Algorithm 1 sees it.
type plannedWorkload struct {
	name  string
	fn    impact.Function
	total int
	// queue lists, in PickRack order, the racks line 8 defines an action
	// for (indexes into Planner.racks).
	queue []int32
}

// candidate is one workload's next rack with the action it would take; ok
// is false once the workload has no rack left to act on.
type candidate struct {
	ok  bool
	act PlannedAction
}

// NewPlanner prepares Algorithm 1 for racks on topo under scenario. A
// workload's impact function is resolved once, by its name and the category
// of its first rack in PickRack order.
func NewPlanner(topo *power.Topology, racks []ManagedRack, scenario impact.Scenario) *Planner {
	p := &Planner{
		topo:  topo,
		racks: append([]ManagedRack(nil), racks...),
		est:   make([]power.Watts, len(topo.UPSes)),
	}
	slices.SortStableFunc(p.racks, func(a, b ManagedRack) int {
		if a.Priority != b.Priority {
			return cmp.Compare(a.Priority, b.Priority)
		}
		return cmp.Compare(a.ID, b.ID)
	})

	// The workloads, in name order: the order candidates are scanned in.
	// Rack lists come in runs of one workload (a deployment's racks), so
	// only a change of name costs a map access, here and below.
	index := map[string]int{}
	for i := range p.racks {
		r := &p.racks[i]
		if i > 0 && r.Workload == p.racks[i-1].Workload {
			continue
		}
		if _, ok := index[r.Workload]; !ok {
			index[r.Workload] = -1
			p.workloads = append(p.workloads, plannedWorkload{
				name: r.Workload,
				fn:   scenario.For(r.Workload, r.Category),
			})
		}
	}
	slices.SortFunc(p.workloads, func(a, b plannedWorkload) int { return cmp.Compare(a.name, b.name) })
	for wi := range p.workloads {
		index[p.workloads[wi].name] = wi
	}

	// One array holds every rack's workload and, behind them, the queues:
	// a queue is at most its workload's size.
	n := len(p.racks)
	idx := make([]int32, 2*n)
	p.workloadOf = idx[:n]
	for i := range p.racks {
		if i > 0 && p.racks[i].Workload == p.racks[i-1].Workload {
			p.workloadOf[i] = p.workloadOf[i-1]
		} else {
			p.workloadOf[i] = int32(index[p.racks[i].Workload])
		}
		p.workloads[p.workloadOf[i]].total++
	}
	for wi := range p.workloads {
		w := &p.workloads[wi]
		w.queue = idx[n : n : n+w.total]
		n += w.total
	}
	for i := range p.racks {
		// Only the categories line 8 defines an action for queue up.
		switch p.racks[i].Category {
		case workload.SoftwareRedundant, workload.NonRedundantCapable:
			w := &p.workloads[p.workloadOf[i]]
			w.queue = append(w.queue, int32(i))
		}
	}
	p.affected = make([]int, len(p.workloads))
	p.next = make([]int, len(p.workloads))
	p.cands = make([]candidate, len(p.workloads))
	return p
}

// Plan runs Algorithm 1 (see PlanContext) over the prepared racks at the
// moment in describes. Of in it reads only what varies from call to call —
// UPSPower, RackPower, Inactive, Buffer and Acted; Topo, Racks and Scenario
// were fixed by NewPlanner. The actions are appended to dst[:0], on every
// return path: a caller that passes the previous plan's slice back, once
// done with it, plans without allocating.
func (p *Planner) Plan(ctx context.Context, in PlanInput, dst []PlannedAction) (actions []PlannedAction, insufficient bool, err error) {
	topo := p.topo
	actions = dst[:0]
	if len(in.UPSPower) != len(topo.UPSes) {
		return actions, false, fmt.Errorf("controller: UPS snapshot has %d entries for %d UPSes", len(in.UPSPower), len(topo.UPSes))
	}
	est := p.est
	copy(est, in.UPSPower)
	// Racks already acted on count toward their workload's affected
	// fraction; the queues skip them as the cursors reach them.
	clear(p.affected)
	clear(p.next)
	if len(in.Acted) > 0 {
		for i := range p.racks {
			if in.Acted[p.racks[i].ID] {
				p.affected[p.workloadOf[i]]++
			}
		}
	}

	// overLimit reports whether some active UPS is estimated above its
	// limit minus the buffer, plus slack.
	overLimit := func(slack power.Watts) bool {
		for u := range topo.UPSes {
			if in.Inactive[power.UPSID(u)] {
				continue
			}
			if est[u] > topo.UPSes[u].Capacity-in.Buffer+slack {
				return true
			}
		}
		return false
	}
	// The candidate set C (lines 5–12) is one rack per workload. A pick
	// moves only its own workload's cursor and affected count, so the
	// others' candidates stand from one iteration to the next.
	for wi := range p.workloads {
		p.propose(wi, in.RackPower, in.Acted)
	}
	for overLimit(0) {
		if ctx.Err() != nil {
			return actions, true, context.Cause(ctx)
		}
		// Select argmin impact (line 13); ties: max recovered, then ID.
		best := -1
		for i := range p.cands {
			if !p.cands[i].ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := &p.cands[i].act, &p.cands[best].act
			switch {
			case a.Impact < b.Impact-1e-12:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered > b.Recovered:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered == b.Recovered && a.Rack < b.Rack:
				best = i
			}
		}
		if best < 0 {
			// Every shaveable rack is spent. A placement Eq. 4 accepts may
			// sit up to CapacityTolerance above a UPS's capacity at full
			// draw, so only an overage beyond that is insufficient.
			return actions, overLimit(power.CapacityTolerance), nil
		}
		chosen := &p.cands[best]
		actions = append(actions, chosen.act)
		p.affected[best]++
		p.next[best]++
		// Update the UPS estimates with the rack's share (line 15).
		applyRecovery(topo, est, in.Inactive, chosen.act.Pair, chosen.act.Recovered)
		p.propose(best, in.RackPower, in.Acted)
	}
	return actions, false, nil
}

// propose sets workload wi's candidate: its next rack not yet acted on, with
// the action the rack's category defines and the impact of one more affected
// rack — or none, once its queue has run out.
func (p *Planner) propose(wi int, rackPower map[string]power.Watts, acted map[string]bool) {
	w := &p.workloads[wi]
	next := p.next[wi]
	for next < len(w.queue) && acted[p.racks[w.queue[next]].ID] {
		next++
	}
	p.next[wi] = next
	if next == len(w.queue) {
		p.cands[wi].ok = false
		return
	}
	r := &p.racks[w.queue[next]]
	pw, ok := rackPower[r.ID]
	if !ok {
		pw = r.Allocated // conservative: assume full draw
	}
	// The action is the rack's own category's (line 8), whatever
	// its workload's other racks are: a non-redundant rack is
	// never powered off.
	act := PlannedAction{Rack: r.ID, Workload: w.name, Pair: r.Pair, Kind: Shutdown, Recovered: pw}
	if r.Category == workload.NonRedundantCapable {
		rec := pw - r.FlexPower
		if rec < 0 {
			rec = 0
		}
		act = PlannedAction{Rack: r.ID, Workload: w.name, Pair: r.Pair, Kind: Throttle, Recovered: rec, CapTarget: r.FlexPower}
	}
	frac := float64(p.affected[wi]+1) / float64(w.total)
	act.Impact = w.fn.At(frac)
	p.cands[wi] = candidate{ok: true, act: act}
}

// applyRecovery subtracts a rack's recovered power from the UPS estimates
// according to the live topology: each upstream UPS of its pair sheds the
// share of the rack it was carrying (power.PairShare).
func applyRecovery(topo *power.Topology, est []power.Watts, inactive map[power.UPSID]bool, pair power.PDUPairID, rec power.Watts) {
	p := topo.Pairs[pair]
	a, b := p.UPSes[0], p.UPSes[1]
	wa, wb := power.PairShare(inactive[a], inactive[b])
	est[a] -= power.Watts(wa) * rec
	est[b] -= power.Watts(wb) * rec
}

// InferInactiveSet infers which UPSes are out of service from the power
// snapshot alone: a UPS whose measured output is below threshold (as a
// fraction of capacity) while the room is loaded is treated as inactive.
// This matches the paper's design — the controllers monitor only power,
// not failure events (§IV-D).
//
//flex:hotpath
func InferInactiveSet(topo *power.Topology, upsPower []power.Watts, threshold float64) power.UPSSet {
	var total power.Watts
	for _, w := range upsPower {
		total += w
	}
	if total <= 0 {
		return 0 // unloaded room: nothing to infer
	}
	var out power.UPSSet
	for u, w := range upsPower {
		if u < len(topo.UPSes) && float64(w) < threshold*float64(topo.UPSes[u].Capacity) {
			out |= 1 << uint(u)
		}
	}
	return out
}

// InferInactiveUPSes is InferInactiveSet in the map form PlanInput.Inactive
// takes.
func InferInactiveUPSes(topo *power.Topology, upsPower []power.Watts, threshold float64) map[power.UPSID]bool {
	return inactiveMap(InferInactiveSet(topo, upsPower, threshold), len(upsPower))
}

// inactiveMap is the map form of the set's members among the first n UPSes.
func inactiveMap(set power.UPSSet, n int) map[power.UPSID]bool {
	out := make(map[power.UPSID]bool)
	for u := 0; u < n; u++ {
		if set.Has(power.UPSID(u)) {
			out[power.UPSID(u)] = true
		}
	}
	return out
}
