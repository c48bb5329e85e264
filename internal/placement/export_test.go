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
