package rackmgr

import (
	"fmt"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/recorder"
)

// Alert is a problem the background verification service found with a
// rack's actuation path (paper §VI: the service "warns operators and
// engineers to take immediate remedial actions").
type Alert struct {
	Rack   string
	Reason string
	At     time.Time
}

// Watchdog is the paper's §VI background service: each sweep checks
// firmware status and network reachability for every rack manager and
// injects fake (dry-run) actions to prove that a real corrective action
// would succeed during an actual maintenance event. Its owner calls
// SweepOnce on its own cadence.
type Watchdog struct {
	Manager *Manager
	Clock   clock.Clock
	// OnAlert receives every alert; nil alerts are collected internally
	// and available via Alerts.
	OnAlert func(Alert)

	mu     sync.Mutex
	alerts []Alert
	sweeps int
}

// NewWatchdog builds a watchdog over m that stamps its alerts with clk.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func NewWatchdog(m *Manager, clk clock.Clock) *Watchdog {
	return &Watchdog{Manager: m, Clock: clk}
}

// SweepOnce verifies every rack's control path once, returning the alerts
// raised. A "fake action" is exercised by checking health and simulating a
// no-op command path (reachability + firmware gates are exactly the gates
// a real command passes through).
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (w *Watchdog) SweepOnce() []Alert {
	var raised []Alert
	now := w.Clock.Now()
	for _, id := range w.Manager.RackIDs() {
		if err := w.Manager.Health(id); err != nil {
			raised = append(raised, Alert{
				Rack:   id,
				Reason: fmt.Sprintf("fake action failed: %v", err),
				At:     now,
			})
		}
	}
	w.mu.Lock()
	w.sweeps++
	w.alerts = append(w.alerts, raised...)
	cb := w.OnAlert
	w.mu.Unlock()
	if m := w.Manager.Metrics; m != nil {
		m.WatchdogSweeps.Inc()
		if len(raised) > 0 {
			m.WatchdogAlerts.Add(uint64(len(raised)))
		}
	}
	if rec := w.Manager.Recorder; rec != nil {
		for _, a := range raised {
			rec.Emit(recorder.Event{
				Type:    recorder.TypeWatchdogAlert,
				Time:    a.At,
				Actor:   "watchdog",
				Subject: a.Rack,
				Detail:  a.Reason,
			})
		}
	}
	if cb != nil {
		for _, a := range raised {
			cb(a)
		}
	}
	return raised
}

// Alerts returns all alerts raised so far.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (w *Watchdog) Alerts() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Alert(nil), w.alerts...)
}

// Sweeps reports how many sweeps have completed.
//
//flex:keep the fault-schedule work (ROADMAP item 1) runs the §VI verification service in the emulation
func (w *Watchdog) Sweeps() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sweeps
}
