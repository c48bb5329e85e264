package tsdb

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
)

// DefaultSampleInterval is the sampler cadence when Interval is zero:
// 500ms, twice the controller interval, so the monitoring loop runs at a
// faster timescale than the control loop it audits.
const DefaultSampleInterval = 500 * time.Millisecond

// Sampler scrapes an obs.Registry into a Store on a fixed cadence:
// counters and gauges become one series each (counters as their raw
// monotonic value — rate is a query-time concern), histograms become
// `<name>_count` and `<name>_sum` series. Series keys follow the
// expvar convention (`name;label=value`), so /debug/vars keys and
// /query keys coincide.
//
// Tick is the synchronous core — the emulator drives it on the virtual
// clock inside its tick loop — and Run wraps it in a clock.After loop
// for wall-clock daemons. One goroutine scrapes at a time (Run, or the
// caller driving Tick); Ticks may be read from any.
type Sampler struct {
	Registry *obs.Registry
	Store    *Store
	// Clock paces Run. Tick callers supply timestamps directly.
	Clock clock.Clock
	// Interval is the scrape cadence for Run (DefaultSampleInterval when
	// zero).
	Interval time.Duration

	ticks atomic.Uint64
	// targets binds every registry metric to its series; resolved is
	// the Registry.Size they were resolved at.
	targets  []target
	resolved int
}

// target is one live registry metric and the series it is scraped into:
// counters and gauges fill value, histograms value (their count) and sum.
type target struct {
	metric     obs.Metric
	value, sum *Series
}

// Tick scrapes the registry once, stamping every stored point with now.
// It runs on every emulation tick, so the steady state allocates nothing:
// metric handles and their series are resolved when the registry has
// grown since the last scrape (the first scrape, and whenever a component
// registers late), and a scrape is then one in-place read and one
// Series.Append per series.
//
//flex:hotpath
func (s *Sampler) Tick(now time.Time) {
	if s.Registry == nil || s.Store == nil {
		return
	}
	s.ticks.Add(1)
	if s.Registry.Size() != s.resolved {
		s.resolve()
	}
	for i := range s.targets {
		t := &s.targets[i]
		switch t.metric.Kind {
		case obs.KindHistogram:
			t.value.Append(now, float64(t.metric.Histogram.Count()))
			t.sum.Append(now, t.metric.Histogram.Sum())
		case obs.KindCounter:
			t.value.Append(now, float64(t.metric.Counter.Value()))
		default:
			t.value.Append(now, t.metric.Gauge.Value())
		}
	}
}

// resolve rebinds the targets to the registry as it stands.
//
//flex:coldpath
func (s *Sampler) resolve() {
	metrics := s.Registry.Metrics()
	s.resolved = len(metrics)
	s.targets = s.targets[:0]
	for _, m := range metrics {
		key := metricKey(m)
		t := target{metric: m}
		if m.Kind == obs.KindHistogram {
			t.value = s.Store.Series(key + "_count")
			t.sum = s.Store.Series(key + "_sum")
		} else {
			t.value = s.Store.Series(key)
		}
		s.targets = append(s.targets, t)
	}
}

// Ticks reports how many scrapes have run.
func (s *Sampler) Ticks() uint64 { return s.ticks.Load() }

// Run scrapes on the configured cadence until ctx is done. It paces on
// the injected clock; with a virtual clock prefer driving Tick directly
// for determinism.
func (s *Sampler) Run(ctx context.Context) {
	interval := s.Interval
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	clk := s.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-clk.After(interval):
			s.Tick(now)
		}
	}
}

// metricKey renders the expvar-style series key for a metric.
func metricKey(m obs.Metric) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	var b strings.Builder
	b.WriteString(m.Name)
	for _, l := range m.Labels {
		b.WriteByte(';')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}
