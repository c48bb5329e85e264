package slo

import "time"

// State is the auditor's health verdict.
type State int

// Health states, ordered by severity.
const (
	// StateReady: every objective inside budget, last probe round clean.
	StateReady State = iota
	// StateDegraded: an objective is breached or an overdraw episode is
	// open — the room is reacting, still inside the safety envelope.
	StateDegraded
	// StateUnsafe: the invariant itself is at risk — an open episode has
	// consumed the full 10s budget, or the probe found a UPS whose
	// failure has no feasible shed plan.
	StateUnsafe
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateDegraded:
		return "degraded"
	case StateUnsafe:
		return "unsafe"
	default:
		return "unknown"
	}
}

// Worst returns the more severe of two states — the fold the fleet
// aggregator uses to lift per-shard verdicts into a fleet verdict.
func Worst(a, b State) State {
	if b > a {
		return b
	}
	return a
}

// MarshalJSON renders the state name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Health is the exported health snapshot.
type Health struct {
	State State `json:"state"`
	// Reasons explain any non-ready state, most severe first.
	Reasons []string `json:"reasons,omitempty"`
	// Since is when the current state was entered.
	Since time.Time `json:"since"`
}

// Transition is one recorded health-state change.
type Transition struct {
	Time    time.Time `json:"time"`
	From    State     `json:"from"`
	To      State     `json:"to"`
	Reasons []string  `json:"reasons,omitempty"`
}

// maxTransitions bounds the retained transition history.
const maxTransitions = 256

// evalHealthLocked derives the current state and reasons from the
// objective and probe state. Caller holds a.mu.
func (a *Auditor) evalHealthLocked(episodeOpen bool) (State, []string) {
	state := StateReady
	var reasons []string
	raise := func(s State, reason string) {
		if s > state {
			state = s
		}
		reasons = append(reasons, reason)
	}
	if a.budgetRatio >= 1 {
		raise(StateUnsafe, "open overdraw episode has exhausted the 10s shed budget")
	}
	if len(a.lastInfeas) > 0 {
		msg := "what-if probe found no feasible shed plan for "
		for i, n := range a.lastInfeas {
			if i > 0 {
				msg += ", "
			}
			msg += n
		}
		raise(StateUnsafe, msg)
	}
	if episodeOpen && a.budgetRatio < 1 {
		raise(StateDegraded, "overdraw episode open (budget burn "+pct(a.budgetRatio)+")")
	}
	for _, o := range a.objectives {
		if o.breached {
			raise(StateDegraded, "objective "+o.name+" breached (fast burn "+pct(o.fastBurn)+")")
		}
	}
	return state, reasons
}

func pct(v float64) string {
	// One decimal, no fmt on this path for symmetry with formatWatts.
	i := int64(v*1000 + 0.5)
	whole, frac := i/10, i%10
	if frac < 0 {
		frac = -frac
	}
	return itoa(whole) + "." + itoa(frac) + "%"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// setHealthLocked installs the state, recording a transition when it
// changed. Caller holds a.mu.
func (a *Auditor) setHealthLocked(now time.Time, s State, reasons []string) {
	if s == a.health {
		a.reasons = reasons
		return
	}
	a.transitions = append(a.transitions, Transition{
		Time:    now,
		From:    a.health,
		To:      s,
		Reasons: reasons,
	})
	if len(a.transitions) > maxTransitions {
		a.transitions = a.transitions[len(a.transitions)-maxTransitions:]
	}
	a.health = s
	a.healthSince = now
	a.reasons = reasons
}

func (a *Auditor) healthLocked() Health {
	return Health{
		State:   a.health,
		Reasons: append([]string(nil), a.reasons...),
		Since:   a.healthSince,
	}
}

// Health snapshots the current health verdict.
func (a *Auditor) Health() Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.healthLocked()
}

// Transitions returns the retained health-state transition history in
// order. The slo-smoke gate asserts the healthy→degraded→healthy flip of
// a UPS-failure episode on this.
func (a *Auditor) Transitions() []Transition {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Transition(nil), a.transitions...)
}
