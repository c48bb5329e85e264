package rackmgr

import "flex/internal/obs"

// Metrics instruments the actuation path. Attempt/failure counters are
// labelled by action kind and pre-bound at construction so counting an
// actuation stays allocation-free. A nil *Metrics disables instrumentation.
type Metrics struct {
	attempts       [3]*obs.Counter // indexed by kind
	failures       [3]*obs.Counter
	Noops          *obs.Counter
	WatchdogSweeps *obs.Counter
	WatchdogAlerts *obs.Counter
}

// Actuation kinds, in the order of NewMetrics's labels.
const (
	kindThrottle = iota
	kindShutdown
	kindRestore
)

// NewMetrics registers the rackmgr metrics on r (idempotent).
func NewMetrics(r *obs.Registry) *Metrics {
	attempts := r.CounterVec("flex_rackmgr_actions_total", "actuation attempts by kind", "kind")
	failures := r.CounterVec("flex_rackmgr_action_failures_total", "failed actuations by kind", "kind")
	m := &Metrics{
		Noops: r.Counter("flex_rackmgr_noop_actions_total",
			"idempotent duplicate actions that changed nothing"),
		WatchdogSweeps: r.Counter("flex_rackmgr_watchdog_sweeps_total", "background verification sweeps"),
		WatchdogAlerts: r.Counter("flex_rackmgr_watchdog_alerts_total", "alerts raised by the verification service"),
	}
	for i, kind := range []string{"throttle", "shutdown", "restore"} {
		m.attempts[i] = attempts.With(kind)
		m.failures[i] = failures.With(kind)
	}
	return m
}

// recordAction folds one actuation into the counters (nil-safe; the
// manager's hot path).
func (m *Metrics) recordAction(kind int, effective bool, err error) {
	if m == nil {
		return
	}
	m.attempts[kind].Inc()
	if err != nil {
		m.failures[kind].Inc()
	} else if !effective {
		m.Noops.Inc()
	}
}
