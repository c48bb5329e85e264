// Package telemetry implements Flex's highly available power telemetry
// pipeline (paper §IV-C, Figure 7): redundant logical meters per power
// device with median consensus, independent pollers on separate fault
// domains, and duplicated publish/subscribe brokers. The pipeline has no
// single point of failure — it tolerates the failure or misreading of one
// meter per device, the loss of a poller, and the loss of a broker — and
// its end-to-end latency stays well inside the 10-second Flex budget.
package telemetry

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"flex/internal/power"
)

// Meter is a pull-based power meter. Read returns the currently measured
// power or an error when the meter has failed or cannot produce a sample.
type Meter interface {
	Name() string
	Read(now time.Time) (power.Watts, error)
}

// ErrMeterFailed is returned by failed meters.
var ErrMeterFailed = errors.New("telemetry: meter failed")

// PowerSource supplies the ground-truth power a meter observes. The
// emulator wires rack/UPS models in through this.
type PowerSource func() power.Watts

// SimMeterConfig configures a simulated meter.
type SimMeterConfig struct {
	// Noise is the standard deviation of additive gaussian reading noise,
	// as a fraction of the true value (e.g. 0.005 = 0.5%).
	Noise float64
	// StaleFor emulates low-fidelity device meters that keep returning
	// the same value for a window (paper §VI reports up to 5 seconds on
	// UPS meters). Zero disables staleness.
	StaleFor time.Duration
	// Seed drives the noise generator: the meter's PCG stream starts
	// from two SplitMix64 outputs of it, so neighbouring seeds start in
	// unrelated states.
	Seed int64
}

// SimMeter is a simulated physical meter with configurable noise,
// staleness, and injectable failure/misreading — the failure modes the
// pipeline's redundancy must mask. A meter has one owner and takes no lock:
// the goroutine that steps its room reads it and injects its faults.
type SimMeter struct {
	name   string
	source PowerSource
	cfg    SimMeterConfig

	failure   error     // what Read returns while failed, built on the first failure
	pcg       rand.PCG  // the noise stream's 16 bytes of state
	rng       rand.Rand // draws from pcg
	failed    bool
	offset    power.Watts // injected mis-calibration
	staleVal  power.Watts
	staleTime time.Time
	haveStale bool
}

// NewSimMeter builds a simulated meter over a ground-truth source.
func NewSimMeter(name string, source PowerSource, cfg SimMeterConfig) *SimMeter {
	m := &SimMeter{name: name, source: source, cfg: cfg}
	s := uint64(cfg.Seed)
	m.pcg.Seed(splitmix64(&s), splitmix64(&s))
	m.rng = *rand.New(&m.pcg)
	return m
}

// splitmix64 advances a SplitMix64 generator at state s and returns its
// output. Its finaliser avalanches, so seeds one apart give unrelated words.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Name implements Meter.
func (m *SimMeter) Name() string { return m.name }

// Read implements Meter.
func (m *SimMeter) Read(now time.Time) (power.Watts, error) {
	if m.failed {
		return 0, m.failure
	}
	if m.cfg.StaleFor > 0 && m.haveStale && now.Sub(m.staleTime) < m.cfg.StaleFor {
		return m.staleVal, nil
	}
	v := m.source()
	if m.cfg.Noise > 0 {
		v += power.Watts(m.rng.NormFloat64() * m.cfg.Noise * float64(v))
	}
	v += m.offset
	if v < 0 {
		v = 0
	}
	if m.cfg.StaleFor > 0 {
		m.staleVal, m.staleTime, m.haveStale = v, now, true
	}
	return v, nil
}

// SetFailed injects or clears a hard meter failure.
func (m *SimMeter) SetFailed(failed bool) {
	if failed && m.failure == nil {
		m.failure = fmt.Errorf("%w: %s", ErrMeterFailed, m.name)
	}
	m.failed = failed
}

// SetOffset injects a constant misreading (mis-calibration) of off watts.
func (m *SimMeter) SetOffset(off power.Watts) { m.offset = off }

// StaticMeter is a Meter returning a fixed value; useful in tests.
type StaticMeter struct {
	MeterName string
	Value     power.Watts
	Err       error
}

// Name implements Meter.
func (s StaticMeter) Name() string { return s.MeterName }

// Read implements Meter.
func (s StaticMeter) Read(time.Time) (power.Watts, error) { return s.Value, s.Err }
