// Package rackmgr simulates the out-of-band actuation path Flex uses to
// enforce corrective actions: rack managers (RM) and baseboard management
// controllers (BMC) that can install a power cap (RAPL-style throttling to
// the rack's flex power), power racks off, and restore them (paper §IV-D,
// §VI "Firmware and network status").
//
// Actions are idempotent — Flex runs multiple controller primaries that
// may issue duplicate commands — and individually injectable failures
// (unreachable RM, stale firmware) model the production failure modes the
// §VI background verification service exists to catch.
package rackmgr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// PowerState is a rack's actuation state.
type PowerState int

// Power states.
const (
	// On: running uncapped.
	On PowerState = iota
	// Throttled: running with a power cap installed.
	Throttled
	// Off: powered down.
	Off
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case On:
		return "on"
	case Throttled:
		return "throttled"
	case Off:
		return "off"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// Errors returned by actuation.
var (
	ErrUnknownRack   = errors.New("rackmgr: unknown rack")
	ErrUnreachable   = errors.New("rackmgr: rack manager unreachable")
	ErrStaleFirmware = errors.New("rackmgr: stale firmware, action refused")
)

// rack is the managed state of one rack.
type rack struct {
	state        PowerState
	cap          power.Watts // installed cap when Throttled
	reachable    bool
	firmwareOK   bool
	lastActionAt time.Time
}

// Manager is a simulated fleet of rack managers. All operations are safe
// for concurrent use by multiple controller primaries.
type Manager struct {
	clk clock.Clock
	// ActionLatency is charged (via the clock) per state-changing action;
	// the paper reports ≈2s p99.9 for a ~10MW room, dominated by the RM
	// round trip. Zero means no delay.
	ActionLatency time.Duration
	// Metrics, when non-nil, counts actuation attempts, failures, and
	// idempotent no-ops. Set it before actuation begins.
	Metrics *Metrics
	// Recorder, when non-nil, emits action-dispatch before and
	// action-ack / action-fail after every actuation, chained to the
	// issuing controller's planned action through Op. Set it before
	// actuation begins.
	Recorder *recorder.Recorder

	mu    sync.Mutex
	racks map[string]*rack
	log   []Action
}

// Op carries the flight-recorder provenance of one actuation: who issued
// it, which planned-action event caused it, and which overdraw episode it
// belongs to. The zero Op (unattributed) is valid — Throttle/Shutdown/
// Restore use it.
type Op struct {
	// Actor is the issuing component (controller name).
	Actor string
	// Cause is the event sequence of the action-planned (or other
	// originating) event.
	Cause uint64
	// Episode is the overdraw episode the action belongs to.
	Episode uint64
}

// Action is one executed (or refused) actuation, for audit and metrics.
type Action struct {
	Rack string
	Kind string // "throttle", "shutdown", "restore"
	Cap  power.Watts
	At   time.Time
	Err  error
	// Effective is false when the action was an idempotent no-op.
	Effective bool
}

// NewManager creates a manager over the given rack IDs; all racks start
// On, reachable, with current firmware.
func NewManager(clk clock.Clock, rackIDs []string) *Manager {
	m := &Manager{clk: clk, racks: make(map[string]*rack, len(rackIDs))}
	for _, id := range rackIDs {
		m.racks[id] = &rack{state: On, reachable: true, firmwareOK: true}
	}
	return m
}

// RackIDs returns the managed racks in sorted order.
func (m *Manager) RackIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.racks))
	for id := range m.racks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// check validates the rack exists and the control path works.
func (m *Manager) check(id string) (*rack, error) {
	r, ok := m.racks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRack, id)
	}
	if !r.reachable {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, id)
	}
	if !r.firmwareOK {
		return nil, fmt.Errorf("%w: %s", ErrStaleFirmware, id)
	}
	return r, nil
}

// Throttle installs a power cap on the rack. Throttling an already
// throttled rack updates the cap; throttling an Off rack is refused.
// The call is idempotent with respect to repeated identical commands.
func (m *Manager) Throttle(id string, cap power.Watts) error {
	return m.ThrottleOp(id, cap, Op{})
}

// ThrottleOp is Throttle with flight-recorder provenance.
func (m *Manager) ThrottleOp(id string, cap power.Watts, op Op) error {
	dispatch := m.emitDispatch("throttle", id, cap, op)
	if m.ActionLatency > 0 {
		m.clk.Sleep(m.ActionLatency)
	}
	effective, err := m.throttleLocked(id, cap)
	m.emitOutcome("throttle", id, cap, op, dispatch, effective, err)
	return err
}

func (m *Manager) throttleLocked(id string, cap power.Watts) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.check(id)
	if err != nil {
		m.logAction(Action{Rack: id, Kind: "throttle", Cap: cap, Err: err})
		return false, err
	}
	if r.state == Off {
		err := fmt.Errorf("rackmgr: cannot throttle powered-off rack %s", id)
		m.logAction(Action{Rack: id, Kind: "throttle", Cap: cap, Err: err})
		return false, err
	}
	effective := r.state != Throttled || r.cap != cap
	r.state = Throttled
	r.cap = cap
	r.lastActionAt = m.clk.Now()
	m.logAction(Action{Rack: id, Kind: "throttle", Cap: cap, Effective: effective})
	return effective, nil
}

// Shutdown powers the rack off. Idempotent.
func (m *Manager) Shutdown(id string) error {
	return m.ShutdownOp(id, Op{})
}

// ShutdownOp is Shutdown with flight-recorder provenance.
func (m *Manager) ShutdownOp(id string, op Op) error {
	dispatch := m.emitDispatch("shutdown", id, 0, op)
	if m.ActionLatency > 0 {
		m.clk.Sleep(m.ActionLatency)
	}
	effective, err := m.shutdownLocked(id)
	m.emitOutcome("shutdown", id, 0, op, dispatch, effective, err)
	return err
}

func (m *Manager) shutdownLocked(id string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.check(id)
	if err != nil {
		m.logAction(Action{Rack: id, Kind: "shutdown", Err: err})
		return false, err
	}
	effective := r.state != Off
	r.state = Off
	r.cap = 0
	r.lastActionAt = m.clk.Now()
	m.logAction(Action{Rack: id, Kind: "shutdown", Effective: effective})
	return effective, nil
}

// Restore returns the rack to uncapped operation (lifting a throttle or
// powering it back on). Idempotent.
func (m *Manager) Restore(id string) error {
	return m.RestoreOp(id, Op{})
}

// RestoreOp is Restore with flight-recorder provenance.
func (m *Manager) RestoreOp(id string, op Op) error {
	dispatch := m.emitDispatch("restore", id, 0, op)
	if m.ActionLatency > 0 {
		m.clk.Sleep(m.ActionLatency)
	}
	effective, err := m.restoreLocked(id)
	m.emitOutcome("restore", id, 0, op, dispatch, effective, err)
	return err
}

func (m *Manager) restoreLocked(id string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.check(id)
	if err != nil {
		m.logAction(Action{Rack: id, Kind: "restore", Err: err})
		return false, err
	}
	effective := r.state != On
	r.state = On
	r.cap = 0
	r.lastActionAt = m.clk.Now()
	m.logAction(Action{Rack: id, Kind: "restore", Effective: effective})
	return effective, nil
}

// emitDispatch records that a command left for the rack manager; it runs
// before the RM round-trip latency is charged and before any manager lock
// is taken.
func (m *Manager) emitDispatch(kind, id string, cap power.Watts, op Op) uint64 {
	if m.Recorder == nil {
		return 0
	}
	return m.Recorder.Emit(recorder.Event{
		Type:    recorder.TypeActionDispatch,
		Time:    m.clk.Now(),
		Actor:   op.Actor,
		Subject: id,
		Value:   float64(cap),
		Detail:  kind,
		Cause:   op.Cause,
		Episode: op.Episode,
	})
}

// emitOutcome records the RM's answer — ack (Aux=1 when the state
// actually changed) or fail — chained to the dispatch event.
func (m *Manager) emitOutcome(kind, id string, cap power.Watts, op Op, dispatch uint64, effective bool, err error) {
	if m.Recorder == nil {
		return
	}
	e := recorder.Event{
		Time:    m.clk.Now(),
		Actor:   op.Actor,
		Subject: id,
		Value:   float64(cap),
		Detail:  kind,
		Cause:   dispatch,
		Episode: op.Episode,
	}
	if err != nil {
		e.Type = recorder.TypeActionFail
		e.Detail = kind + ": " + err.Error()
	} else {
		e.Type = recorder.TypeActionAck
		if effective {
			e.Aux = 1
		}
	}
	m.Recorder.Emit(e)
}

// State returns the rack's power state and cap.
func (m *Manager) State(id string) (PowerState, power.Watts, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.racks[id]
	if !ok {
		return On, 0, fmt.Errorf("%w: %s", ErrUnknownRack, id)
	}
	return r.state, r.cap, nil
}

// SetReachable injects or clears a management-network failure for a rack.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (m *Manager) SetReachable(id string, reachable bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.racks[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRack, id)
	}
	r.reachable = reachable
	return nil
}

// SetFirmwareOK injects or clears a firmware regression for a rack.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (m *Manager) SetFirmwareOK(id string, ok bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, exists := m.racks[id]
	if !exists {
		return fmt.Errorf("%w: %s", ErrUnknownRack, id)
	}
	r.firmwareOK = ok
	return nil
}

// Health reports whether the rack's control path is currently usable.
func (m *Manager) Health(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.check(id)
	return err
}

func (m *Manager) logAction(a Action) {
	a.At = m.clk.Now()
	m.log = append(m.log, a)
	m.Metrics.recordAction(&a)
}

// Actuations reports how many actuations the manager has executed,
// effective or not: the length of its action log. No rack's state or cap
// changes without it moving, so a reader that polls every rack (the
// emulators' ground truth) re-reads them only when it has.
func (m *Manager) Actuations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log)
}
