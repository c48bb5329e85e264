package telemetry

import (
	"math"
	"sync"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// EWMAEstimator is the time-series rack-power estimator the paper's
// Algorithm 1 can plan from instead of a raw snapshot (§IV-D: "a recent
// snapshot or an estimate based on time series models can be used"). It
// tracks an exponentially weighted mean and mean absolute deviation per
// device, so planners can ask for a conservative bound instead of a
// point-in-time reading that may be mid-spike or mid-valley.
type EWMAEstimator struct {
	alpha float64

	mu   sync.Mutex
	mean map[string]float64
	dev  map[string]float64
	at   map[string]time.Time
	rec  *recorder.Recorder
}

// NewEWMAEstimator creates an estimator with smoothing factor alpha in
// (0, 1]; alpha 1 degenerates to the latest sample. A typical value for
// 2-second rack telemetry is 0.25.
func NewEWMAEstimator(alpha float64) *EWMAEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	return &EWMAEstimator{
		alpha: alpha,
		mean:  make(map[string]float64),
		dev:   make(map[string]float64),
		at:    make(map[string]time.Time),
	}
}

// SetRecorder makes every accepted update emit an estimator-bound event
// carrying the device's refreshed conservative lower bound (mean −
// deviation, clamped at zero — what the controller plans from). Set it
// before updates begin.
//
//flex:keep the facade's WithRackEstimator plans from it; whether the estimator stays is an open ROADMAP decision
func (e *EWMAEstimator) SetRecorder(rec *recorder.Recorder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rec = rec
}

// Update folds a valid sample into the estimate (invalid samples are
// ignored; out-of-order samples are dropped).
//
//flex:keep the facade's WithRackEstimator plans from it; whether the estimator stays is an open ROADMAP decision
func (e *EWMAEstimator) Update(s Sample) {
	if !s.Valid {
		return
	}
	e.mu.Lock()
	if t, ok := e.at[s.Device]; ok && !s.MeasuredAt.After(t) {
		e.mu.Unlock()
		return
	}
	v := float64(s.Power)
	m, ok := e.mean[s.Device]
	if !ok {
		e.mean[s.Device] = v
		e.dev[s.Device] = 0
	} else {
		diff := math.Abs(v - m)
		e.mean[s.Device] = m + e.alpha*(v-m)
		e.dev[s.Device] = e.dev[s.Device] + e.alpha*(diff-e.dev[s.Device])
	}
	e.at[s.Device] = s.MeasuredAt
	bound := e.mean[s.Device] - e.dev[s.Device]
	rec := e.rec
	e.mu.Unlock()
	if rec == nil {
		return
	}
	if bound < 0 {
		bound = 0
	}
	rec.Emit(recorder.Event{
		Type:    recorder.TypeEstimatorBound,
		Time:    s.MeasuredAt,
		Subject: s.Device,
		Value:   bound,
		Score:   v,
		Cause:   s.Event,
	})
}

// Estimate returns the smoothed power for device.
//
//flex:keep the facade's WithRackEstimator plans from it; whether the estimator stays is an open ROADMAP decision
func (e *EWMAEstimator) Estimate(device string) (power.Watts, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.mean[device]
	return power.Watts(m), ok
}

// Bound returns mean + k×deviation (use negative k for a conservative
// lower bound — the safe direction when estimating how much power a
// corrective action will recover). Results are clamped at zero.
//
//flex:keep the facade's WithRackEstimator plans from it; whether the estimator stays is an open ROADMAP decision
func (e *EWMAEstimator) Bound(device string, k float64) (power.Watts, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.mean[device]
	if !ok {
		return 0, false
	}
	v := m + k*e.dev[device]
	if v < 0 {
		v = 0
	}
	return power.Watts(v), true
}

// DeviationTotal returns the sum of the per-device mean absolute
// deviations — the estimator's aggregate conservatism margin in watts.
// When the controller plans from Bound(-1), this is exactly how much
// recoverable power the conservative bounds give up relative to the
// smoothed means; the SLO auditor tracks it as a derived series.
func (e *EWMAEstimator) DeviationTotal() power.Watts {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sum float64
	for _, d := range e.dev {
		sum += d
	}
	return power.Watts(sum)
}

// BoundSnapshot returns mean + k×deviation for every tracked device.
func (e *EWMAEstimator) BoundSnapshot(k float64) map[string]power.Watts {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]power.Watts, len(e.mean))
	for d, m := range e.mean {
		v := m + k*e.dev[d]
		if v < 0 {
			v = 0
		}
		out[d] = power.Watts(v)
	}
	return out
}
