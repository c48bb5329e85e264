package telemetry

import "time"

// Polls reports how many poll rounds have executed.
func (p *Poller) Polls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// Age returns how stale device's last sample is at time now; ok=false when
// the device has never reported.
func (l *LatestPower) Age(device string, now time.Time) (time.Duration, bool) {
	_, at, ok := l.Get(device)
	if !ok {
		return 0, false
	}
	return now.Sub(at), true
}

// Close tears the connection down.
func (p *RemotePublisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn, p.enc = nil, nil
	}
}
