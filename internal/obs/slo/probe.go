package slo

import (
	"context"
	"time"

	"flex/internal/controller"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// probeResult is one what-if round across every UPS.
type probeResult struct {
	infeasible []string
	events     []recorder.Event
	elapsed    time.Duration
}

// probe answers "if UPS u failed right now, does a shed plan exist
// inside the planning budget?" for every UPS, against the live rack
// telemetry. It emits nothing itself: its probe-fail events are returned
// for Tick to emit, in order, with the round's others. The planning
// passes run under ctx bounded per-UPS by ProbeBudget, exactly the budget
// the live controller would plan under, so a feasible probe plan implies
// the real controller could produce one in time.
func (a *Auditor) probe(ctx context.Context, now time.Time, upsPower []power.Watts) probeResult {
	b := a.b
	var res probeResult
	var start time.Time
	if b.Clock != nil {
		start = b.Clock.Now()
	}

	// Live rack powers; racks without a reading plan at allocated power
	// (the planner's own conservative convention).
	rackPower := a.rackPower
	b.RackView.SnapshotInto(rackPower)
	pairLoad := a.pairLoad
	clear(pairLoad)
	for _, r := range b.Racks {
		p, ok := rackPower[r.ID]
		if !ok {
			p = r.Allocated
		}
		pairLoad[r.Pair] += p
	}

	for u := range b.Topo.UPSes {
		name := b.Topo.UPSes[u].Name
		failover := b.Topo.FailoverLoads(pairLoad, power.UPSID(u))
		// Power the plan must recover to bring every survivor under
		// capacity−buffer.
		var excess power.Watts
		for v := range b.Topo.UPSes {
			if v == u {
				continue
			}
			if over := failover[v] - (b.Topo.UPSes[v].Capacity - b.Buffer); over > 0 {
				excess += over
			}
		}
		if excess <= 0 {
			continue // this failure needs no shedding at current load
		}
		planCtx, cancel := context.WithTimeout(ctx, ProbeBudget)
		actions, insufficient, err := a.planner.Plan(planCtx, controller.PlanInput{
			UPSPower:  failover,
			RackPower: rackPower,
			Inactive:  a.failed[u],
			Buffer:    b.Buffer,
		}, a.planBuf)
		cancel()
		a.planBuf = actions
		if err == nil && !insufficient {
			continue
		}
		var recovered power.Watts
		for _, act := range actions {
			recovered += act.Recovered
		}
		uncovered := excess - recovered
		if uncovered < 0 {
			uncovered = 0
		}
		detail := "insufficient shaveable power"
		if err != nil {
			detail = err.Error()
		}
		res.infeasible = append(res.infeasible, name)
		res.events = append(res.events, recorder.Event{
			Type:    recorder.TypeProbeFail,
			Time:    now,
			Actor:   "slo",
			Subject: name,
			Value:   float64(uncovered),
			Aux:     int64(len(actions)),
			Detail:  detail,
		})
	}
	if b.Clock != nil {
		res.elapsed = b.Clock.Now().Sub(start)
	}
	return res
}
