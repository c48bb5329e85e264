package telemetry

import "time"

// Age returns how stale device's last sample is at time now; ok=false when
// the device has never reported.
func (l *LatestPower) Age(device string, now time.Time) (time.Duration, bool) {
	_, at, ok := l.Get(device)
	if !ok {
		return 0, false
	}
	return now.Sub(at), true
}
