package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// TestState drives the unexported state from the external test package,
// which (unlike this one) may import placement/online.
type TestState struct{ s *state }

func NewTestState(room *Room) TestState { return TestState{newState(room)} }

func (t TestState) CanPlace(d workload.Deployment, pid power.PDUPairID) bool {
	return t.s.canPlace(d, pid)
}
func (t TestState) Place(d workload.Deployment, pid power.PDUPairID)  { t.s.place(d, pid) }
func (t TestState) Remove(d workload.Deployment, pid power.PDUPairID) { t.s.remove(d, pid) }
func (t TestState) Ledger() *power.Ledger                             { return t.s.safety }
func (t TestState) Placement(trace []workload.Deployment) *Placement  { return t.s.result(trace) }

// remove reverses place.
func (s *state) remove(d workload.Deployment, pid power.PDUPairID) {
	s.vacate(d, pid)
	delete(s.placed, d.ID)
	delete(s.deps, d.ID)
}

// PlacedPowerByCategory returns the placed power per workload category.
func (p *Placement) PlacedPowerByCategory() map[workload.Category]power.Watts {
	out := make(map[workload.Category]power.Watts, 3)
	for _, d := range p.Deployments {
		if _, ok := p.Assignments[d.ID]; ok {
			out[d.Category] += d.TotalPower()
		}
	}
	return out
}

// UPSUtilization returns each UPS's normal-operation allocated load as a
// fraction of its capacity.
func (p *Placement) UPSUtilization() []float64 {
	topo := p.Room.Topo
	loads := topo.UPSLoads(p.PairLoad())
	out := make([]float64, len(loads))
	for u, w := range loads {
		out[u] = float64(w) / float64(topo.UPSes[u].Capacity)
	}
	return out
}
