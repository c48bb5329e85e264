package telemetry

import (
	"fmt"
	"sort"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// LogicalMeter produces the power of one device from several redundant
// physical meters using median consensus. The paper uses three logical
// meters per UPS — UPSMeter ≈ ITMeter ≈ (TotalMeter − MechMeter) — so the
// failure or misreading of any single meter is masked (§IV-C).
type LogicalMeter struct {
	Device string
	meters []Meter
	// Quorum is the minimum number of successful readings required; the
	// default (set by NewLogicalMeter) is a majority of the meters.
	Quorum int
	// Metrics, when non-nil, counts reads whose physical meters disagree
	// beyond DisagreementFrac — the signal that the median is actively
	// masking a mis-calibrated meter.
	Metrics *Metrics
	// DisagreementFrac is the relative spread (max−min over median) above
	// which a read counts as a disagreement (default 0.05, set by
	// NewLogicalMeter).
	DisagreementFrac float64
	// Recorder, when non-nil, emits a consensus-verdict event per
	// successful read, a consensus-disagree event when the median masked
	// a spread beyond DisagreementFrac, and a consensus-quorum-loss event
	// on quorum failure. Set it before reads begin.
	Recorder *recorder.Recorder
}

// NewLogicalMeter builds a consensus meter over the given physical meters.
func NewLogicalMeter(device string, meters ...Meter) (*LogicalMeter, error) {
	if len(meters) == 0 {
		return nil, fmt.Errorf("telemetry: logical meter %q needs at least one physical meter", device)
	}
	return &LogicalMeter{Device: device, meters: meters, Quorum: len(meters)/2 + 1, DisagreementFrac: 0.05}, nil
}

// Read returns the median of the currently readable meters. It fails when
// fewer than Quorum meters respond — the caller must treat the device's
// power as unknown (and, for safety, assume the worst). The readings are
// collected on the stack unless there are more than four meters.
func (l *LogicalMeter) Read(now time.Time) (power.Watts, error) {
	var buf [4]float64
	vals := buf[:0]
	for _, m := range l.meters {
		v, err := m.Read(now)
		if err != nil {
			continue
		}
		vals = append(vals, float64(v))
	}
	if len(vals) < l.Quorum {
		if l.Recorder != nil {
			l.Recorder.Emit(recorder.Event{
				Type:    recorder.TypeConsensusQuorumLoss,
				Time:    now,
				Subject: l.Device,
				Aux:     int64(len(vals)),
			})
		}
		return 0, fmt.Errorf("telemetry: device %s: %d/%d meters readable, quorum %d",
			l.Device, len(vals), len(l.meters), l.Quorum)
	}
	sort.Float64s(vals)
	n := len(vals)
	med := vals[n/2]
	if n%2 == 0 {
		med = (vals[n/2-1] + vals[n/2]) / 2
	}
	disagree := n >= 2 && med > 0 && (vals[n-1]-vals[0]) > l.DisagreementFrac*med
	if l.Metrics != nil && disagree {
		l.Metrics.ConsensusDisagreements.Inc()
	}
	if l.Recorder != nil {
		verdict := l.Recorder.Emit(recorder.Event{
			Type:    recorder.TypeConsensusVerdict,
			Time:    now,
			Subject: l.Device,
			Value:   med,
			Aux:     int64(n),
		})
		if disagree {
			l.Recorder.Emit(recorder.Event{
				Type:    recorder.TypeConsensusDisagree,
				Time:    now,
				Subject: l.Device,
				Value:   (vals[n-1] - vals[0]) / med,
				Cause:   verdict,
			})
		}
	}
	return power.Watts(med), nil
}

// Meters returns the underlying physical meters (for fault injection in
// tests and experiments).
func (l *LogicalMeter) Meters() []Meter { return l.meters }

// NewUPSLogicalMeter builds the paper's three-way redundant logical meter
// for a UPS: a direct UPS output meter, a downstream IT meter, and the
// difference of the total and mechanical meters. All four physical meters
// observe the same ground-truth source here; their independent noise,
// staleness, and failure modes are what the consensus masks.
func NewUPSLogicalMeter(device string, source PowerSource, mechPower PowerSource, seed int64) *LogicalMeter {
	ups := NewSimMeter(device+"/UPSMeter", source, SimMeterConfig{
		Noise: 0.004, StaleFor: 3 * time.Second, Seed: seed,
	})
	it := NewSimMeter(device+"/ITMeter", source, SimMeterConfig{
		Noise: 0.006, Seed: seed + 1,
	})
	total := func() power.Watts { return source() + mechPower() }
	diff := &derivedMeter{
		name: device + "/TotalMinusMech",
		a:    NewSimMeter(device+"/TotalMeter", total, SimMeterConfig{Noise: 0.005, Seed: seed + 2}),
		b:    NewSimMeter(device+"/MechMeter", mechPower, SimMeterConfig{Noise: 0.01, Seed: seed + 3}),
	}
	lm, err := NewLogicalMeter(device, ups, it, diff)
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return lm
}

// derivedMeter computes a − b from two physical meters, mirroring the
// paper's (TotalMeter − MechMeter) logical meter.
type derivedMeter struct {
	name string
	a, b Meter
}

// Name implements Meter.
func (d *derivedMeter) Name() string { return d.name }

// Read implements Meter.
func (d *derivedMeter) Read(now time.Time) (power.Watts, error) {
	av, err := d.a.Read(now)
	if err != nil {
		return 0, err
	}
	bv, err := d.b.Read(now)
	if err != nil {
		return 0, err
	}
	v := av - bv
	if v < 0 {
		v = 0
	}
	return v, nil
}
