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
	"context"
	"fmt"
	"sort"

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
// every shaveable rack is exhausted and some UPS is still over,
// insufficient is true and the actions still help but cannot guarantee
// safety.
//
// ctx is checked once per greedy iteration. When it expires mid-plan the
// actions chosen so far are returned together with insufficient=true and
// context.Cause(ctx): a truncated plan still sheds real power, so callers
// should enforce it rather than discard it (shedding less than needed
// beats shedding nothing inside the overload tolerance window).
func PlanContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	topo := in.Topo
	if len(in.UPSPower) != len(topo.UPSes) {
		return nil, false, fmt.Errorf("controller: UPS snapshot has %d entries for %d UPSes", len(in.UPSPower), len(topo.UPSes))
	}
	est := append([]power.Watts(nil), in.UPSPower...)

	// Per-workload bookkeeping for impact fractions and PickRack order.
	type wl struct {
		name     string
		fn       impact.Function
		total    int
		affected int
		queue    []*ManagedRack // not yet acted, in priority order
	}
	byName := map[string]*wl{}
	var order []string
	racks := make([]ManagedRack, len(in.Racks))
	copy(racks, in.Racks)
	sort.SliceStable(racks, func(i, j int) bool {
		if racks[i].Priority != racks[j].Priority {
			return racks[i].Priority < racks[j].Priority
		}
		return racks[i].ID < racks[j].ID
	})
	for i := range racks {
		r := &racks[i]
		w, ok := byName[r.Workload]
		if !ok {
			w = &wl{
				name: r.Workload,
				fn:   in.Scenario.For(r.Workload, r.Category),
			}
			byName[r.Workload] = w
			order = append(order, r.Workload)
		}
		w.total++
		if in.Acted[r.ID] {
			w.affected++
			continue
		}
		// Only the categories line 8 defines an action for queue up.
		switch r.Category {
		case workload.SoftwareRedundant, workload.NonRedundantCapable:
			w.queue = append(w.queue, r)
		}
	}
	sort.Strings(order)

	rackPower := func(r *ManagedRack) power.Watts {
		if p, ok := in.RackPower[r.ID]; ok {
			return p
		}
		return r.Allocated // conservative: assume full draw
	}

	overLimit := func() bool {
		for u := range topo.UPSes {
			if in.Inactive[power.UPSID(u)] {
				continue
			}
			if est[u] > topo.UPSes[u].Capacity-in.Buffer {
				return true
			}
		}
		return false
	}

	type candidate struct {
		w   *wl
		r   *ManagedRack
		act PlannedAction
	}
	cands := make([]candidate, 0, len(order))
	for overLimit() {
		if ctx.Err() != nil {
			return actions, true, context.Cause(ctx)
		}
		// Build the candidate set C (lines 5–12): one rack per workload.
		cands = cands[:0]
		for _, name := range order {
			w := byName[name]
			if len(w.queue) == 0 {
				continue
			}
			r := w.queue[0]
			p := rackPower(r)
			// The action is the rack's own category's (line 8), whatever
			// its workload's other racks are: a non-redundant rack is
			// never powered off.
			act := PlannedAction{Rack: r.ID, Workload: name, Kind: Shutdown, Recovered: p}
			if r.Category == workload.NonRedundantCapable {
				rec := p - r.FlexPower
				if rec < 0 {
					rec = 0
				}
				act = PlannedAction{Rack: r.ID, Workload: name, Kind: Throttle, Recovered: rec, CapTarget: r.FlexPower}
			}
			frac := float64(w.affected+1) / float64(w.total)
			act.Impact = w.fn.At(frac)
			cands = append(cands, candidate{w: w, r: r, act: act})
		}
		if len(cands) == 0 {
			return actions, true, nil // exhausted all shaveable racks
		}
		// Select argmin impact (line 13); ties: max recovered, then ID.
		best := 0
		for i := 1; i < len(cands); i++ {
			a, b := cands[i].act, cands[best].act
			switch {
			case a.Impact < b.Impact-1e-12:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered > b.Recovered:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered == b.Recovered && a.Rack < b.Rack:
				best = i
			}
		}
		chosen := cands[best]
		actions = append(actions, chosen.act)
		chosen.w.affected++
		chosen.w.queue = chosen.w.queue[1:]
		// Update the UPS estimates with the rack's share (line 15).
		applyRecovery(topo, est, in.Inactive, chosen.r.Pair, chosen.act.Recovered)
	}
	return actions, false, nil
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
	set := InferInactiveSet(topo, upsPower, threshold)
	out := make(map[power.UPSID]bool)
	for u := range upsPower {
		if set.Has(power.UPSID(u)) {
			out[power.UPSID(u)] = true
		}
	}
	return out
}
