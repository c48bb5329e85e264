package placement

import (
	"flex/internal/power"
	"flex/internal/workload"
)

// remove reverses place.
func (s *state) remove(d workload.Deployment, pid power.PDUPairID) {
	s.vacate(d, pid)
	delete(s.placed, d.ID)
	delete(s.deps, d.ID)
}
