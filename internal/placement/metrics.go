package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// StrandedPower is Eq. 5: the room's allocatable power minus the total
// allocated (placed) power — the power made unusable by fragmentation or
// by lack of workload diversity. For a full zero-reserved-power room the
// allocatable power is the entire provisioned power.
func (p *Placement) StrandedPower() power.Watts {
	stranded := p.Room.AllocatablePower() - p.PairLoad().Total()
	if stranded < 0 {
		return 0
	}
	return stranded
}

// StrandedFraction is StrandedPower relative to allocatable power — the
// Y-axis of the paper's Figure 9.
func (p *Placement) StrandedFraction() float64 {
	return float64(p.StrandedPower()) / float64(p.Room.AllocatablePower())
}

// ThrottlingImbalance is the paper's fairness metric (§V-A): for every UPS
// maintenance event f, compute on every other UPS u the worst-case power
// that must be recovered through throttling (after shutting down all
// software-redundant racks), as a fraction r_u^f of that UPS's provisioned
// capacity; the imbalance is max(r) − min(r) across all (f, u). Zero means
// perfectly balanced throttling burden — the Y-axis of Figure 10.
func (p *Placement) ThrottlingImbalance() float64 {
	topo := p.Room.Topo
	// Non-SR pair loads at full allocation (worst case, 100% utilization).
	nonSR := power.NewPairLoad(topo)
	for _, d := range p.Deployments {
		pid, ok := p.Assignments[d.ID]
		if !ok || d.Category == workload.SoftwareRedundant {
			continue
		}
		nonSR[pid] += d.TotalPower()
	}
	first := true
	var maxR, minR float64
	for f := range topo.UPSes {
		loads := topo.FailoverLoads(nonSR, power.UPSID(f))
		for u := range topo.UPSes {
			if u == f {
				continue
			}
			need := float64(loads[u] - topo.UPSes[u].Capacity)
			if need < 0 {
				need = 0
			}
			r := need / float64(topo.UPSes[u].Capacity)
			if first {
				maxR, minR = r, r
				first = false
			} else {
				if r > maxR {
					maxR = r
				}
				if r < minR {
					minR = r
				}
			}
		}
	}
	if first {
		return 0
	}
	return maxR - minR
}
