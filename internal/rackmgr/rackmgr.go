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
//
// The manager is also the one record of what is shed: every rack it holds
// off On, with the PDU pair and recovered power of the planned action that
// took it there. Every primary of a room plans and restores from that
// record, so a primary that restarts forgets nothing.
package rackmgr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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
	state      PowerState
	cap        power.Watts // installed cap when Throttled
	reachable  bool
	firmwareOK bool
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

	mu sync.Mutex
	// index maps a rack ID to its state in racks: two allocations for the
	// whole room.
	index map[string]int32
	racks []rack
	// actuations counts the actuations executed, effective or not.
	actuations int
	// shed is the record: every rack not On, by ID. It is made on the
	// first shed, so a room that never sheds pays nothing for it. sorted
	// is shed as a list by rack, built on the first Record after shed
	// changed and dropped (never edited) when it changes again, so a list
	// already handed out stays a consistent snapshot. lastEffective is
	// when an action last changed a rack's state.
	shed          map[string]Entry
	sorted        []Entry
	lastEffective time.Time
}

// Entry is one rack of the record of what is shed.
type Entry struct {
	Rack string
	// State is Throttled or Off.
	State PowerState
	// Pair, Recovered and At are those of the action that first took the
	// rack off On: the PDU pair it relieved, the power it recovered, and
	// when it took effect.
	Pair      power.PDUPairID
	Recovered power.Watts
	At        time.Time
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
	// Pair and Recovered are the planned action's PDU pair and recovered
	// power, which a shed that takes the rack off On enters in the record.
	Pair      power.PDUPairID
	Recovered power.Watts
}

// NewManager creates a manager over the given rack IDs; all racks start
// On, reachable, with current firmware. A duplicated ID is one rack.
func NewManager(clk clock.Clock, rackIDs []string) *Manager {
	m := &Manager{clk: clk, index: make(map[string]int32, len(rackIDs)), racks: make([]rack, 0, len(rackIDs))}
	for _, id := range rackIDs {
		if _, dup := m.index[id]; dup {
			continue
		}
		m.index[id] = int32(len(m.racks))
		m.racks = append(m.racks, rack{state: On, reachable: true, firmwareOK: true})
	}
	return m
}

// RackIDs returns the managed racks in sorted order.
func (m *Manager) RackIDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.index))
	for id := range m.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// rack returns the rack's state; m.mu is held.
func (m *Manager) rack(id string) (*rack, error) {
	i, ok := m.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRack, id)
	}
	return &m.racks[i], nil
}

// check validates the rack exists and the control path works.
func (m *Manager) check(id string) (*rack, error) {
	r, err := m.rack(id)
	if err != nil {
		return nil, err
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
	effective, err := m.throttleLocked(id, cap, op)
	m.emitOutcome("throttle", id, cap, op, dispatch, effective, err)
	return err
}

func (m *Manager) throttleLocked(id string, cap power.Watts, op Op) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.check(id)
	if err == nil && r.state == Off {
		err = fmt.Errorf("rackmgr: cannot throttle powered-off rack %s", id)
	}
	if err != nil {
		m.count(kindThrottle, false, err)
		return false, err
	}
	effective := r.state != Throttled || r.cap != cap
	r.state = Throttled
	r.cap = cap
	m.count(kindThrottle, effective, nil)
	if effective {
		m.enterLocked(id, Throttled, op)
	}
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
	effective, err := m.shutdownLocked(id, op)
	m.emitOutcome("shutdown", id, 0, op, dispatch, effective, err)
	return err
}

func (m *Manager) shutdownLocked(id string, op Op) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.check(id)
	if err != nil {
		m.count(kindShutdown, false, err)
		return false, err
	}
	effective := r.state != Off
	r.state = Off
	r.cap = 0
	m.count(kindShutdown, effective, nil)
	if effective {
		m.enterLocked(id, Off, op)
	}
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
		m.count(kindRestore, false, err)
		return false, err
	}
	effective := r.state != On
	r.state = On
	r.cap = 0
	m.count(kindRestore, effective, nil)
	if effective {
		delete(m.shed, id)
		m.sorted = nil
		m.lastEffective = m.clk.Now()
	}
	return effective, nil
}

// enterLocked books an effective throttle or shutdown in the record. The
// rack's first entry keeps the pair, watts and time of the action that
// took it off On; a later one (a throttle made a shutdown) moves only its
// state. m.mu is held.
func (m *Manager) enterLocked(id string, state PowerState, op Op) {
	now := m.clk.Now()
	e, ok := m.shed[id]
	if !ok {
		if m.shed == nil {
			m.shed = make(map[string]Entry)
		}
		e = Entry{Rack: id, Pair: op.Pair, Recovered: op.Recovered, At: now}
	}
	e.State = state
	m.shed[id] = e
	m.sorted = nil
	m.lastEffective = now
}

// Record returns the record of what is shed — every rack not On, sorted by
// rack — and the time an action last changed a rack's state (zero before
// the first). Every primary of a room plans and restores from it. The list
// is shared between callers until the record next changes: read it, do
// not modify it.
//
//flex:hotpath
func (m *Manager) Record() ([]Entry, time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sorted == nil && len(m.shed) > 0 {
		m.sortRecordLocked()
	}
	return m.sorted, m.lastEffective
}

// sortRecordLocked rebuilds the sorted list after the record changed.
//
//flex:coldpath
func (m *Manager) sortRecordLocked() {
	m.sorted = make([]Entry, 0, len(m.shed))
	for _, e := range m.shed {
		m.sorted = append(m.sorted, e)
	}
	slices.SortFunc(m.sorted, func(a, b Entry) int { return strings.Compare(a.Rack, b.Rack) })
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
	r, err := m.rack(id)
	if err != nil {
		return On, 0, err
	}
	return r.state, r.cap, nil
}

// SetReachable injects or clears a management-network failure for a rack.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (m *Manager) SetReachable(id string, reachable bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.rack(id)
	if err != nil {
		return err
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
	r, err := m.rack(id)
	if err != nil {
		return err
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

// count records one actuation of kind; m.mu is held.
func (m *Manager) count(kind int, effective bool, err error) {
	m.actuations++
	m.Metrics.recordAction(kind, effective, err)
}

// Actuations reports how many actuations the manager has executed,
// effective or not. No rack's state or cap changes without it moving, so a
// reader that polls every rack (the emulators' ground truth) re-reads them
// only when it has.
func (m *Manager) Actuations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.actuations
}
