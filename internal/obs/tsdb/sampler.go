package tsdb

import (
	"strings"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
)

// Sampler scrapes an obs.Registry into a Store, once a Tick:
// counters and gauges become one series each (counters as their raw
// monotonic value — rate is a query-time concern), histograms become
// `<name>_count` and `<name>_sum` series. Series keys follow the
// expvar convention (`name;label=value`).
//
// The owner drives Tick on its own clock — the emulator does inside its
// tick loop — one goroutine at a time.
type Sampler struct {
	Registry *obs.Registry
	Store    *Store
	// Clock is read by nothing: Tick callers supply timestamps.
	//
	//flex:keep bench/'s room driver sets it; it goes with that driver (ROADMAP item 3)
	Clock clock.Clock

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
