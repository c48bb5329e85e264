// Package obs is the observability layer for the Flex control software
// itself: metrics about the detect→plan→act pipeline, the telemetry
// fan-in, the actuation path, and the offline solvers — as opposed to
// internal/telemetry, which models the datacenter's power meters.
//
// The package is stdlib-only and dependency-injected: components receive a
// *Registry (and optionally a *Tracer) at construction and update
// pre-bound metrics on their hot paths with zero per-observation
// allocations. Time never comes from the wall clock here — spans record
// caller-supplied timestamps from the injected clock.Clock, so virtual-
// clock tests can assert exact latencies and clockcheck stays clean.
//
// The registry is read in process: the tsdb sampler scrapes it every
// tick, and `flexmon -metrics` prints it as a CSV summary after a run.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the metric type.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer (Prometheus TYPE names).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
// The zero value is usable, but counters are normally created through a
// Registry so they export.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//flex:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//flex:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//flex:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram keeps the exact count and sum of its observations — what the
// sampler scrapes and the summary prints. Observe is two atomic updates: no
// allocation, no locking. Concurrent Observe calls are safe; a concurrent
// read may see count and sum from slightly different instants.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records v.
//
//flex:hotpath
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds (the Prometheus base unit).
//
//flex:hotpath
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets returns the bounds (seconds) the latency histograms
// register with: sub-second resolution below the controller interval, and
// an exact boundary at the 10-second UPS overload tolerance. A histogram
// keeps no per-bucket counts; its bounds are part of the shape that
// re-registering a name must repeat.
func LatencyBuckets() []float64 {
	return []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 3, 5, 7.5, 10, 15, 30, 60}
}

// metric is one registered entry.
type metric struct {
	name   string
	help   string //flex:keep bench/ registers every metric with a help string; it goes when bench/ moves onto the kernel (ROADMAP item 3)
	kind   Kind
	labels []string // label names for vecs; nil for plain metrics

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	buckets []float64 // histogram bounds, part of the shape re-registration checks

	mu       sync.Mutex
	children []*child // vec children in registration order
	byKey    map[string]*child
	size     *atomic.Int64 // the owning registry's Size counter
}

// child is one pre-bound labelled metric of a vec.
type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds metrics for export. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use, but metric
// creation is intended for wiring time — hot paths hold only the returned
// *Counter/*Gauge/*Histogram.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
	size    atomic.Int64 // plain metrics + vec children registered so far

	stagesOnce sync.Once
	stages     *StageMetrics // NewStageMetrics' one instance
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register is the common get-or-create path. Registering the same name
// twice with the same kind and labels returns the existing metric
// (idempotent wiring); a mismatch panics — that is a programming error,
// like prometheus.MustRegister.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *metric {
	if !ValidMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !ValidLabelName(l) {
			panic("obs: invalid label name " + l + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind || !equalStrings(m.labels, labels) || !equalFloats(m.buckets, buckets) {
			panic("obs: metric " + name + " re-registered with a different shape")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: labels, buckets: buckets, size: &r.size}
	if len(labels) == 0 {
		r.size.Add(1)
		switch kind {
		case KindCounter:
			m.counter = &Counter{}
		case KindGauge:
			m.gauge = &Gauge{}
		case KindHistogram:
			m.hist = &Histogram{}
		}
	} else {
		m.byKey = make(map[string]*child)
	}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).counter
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).gauge
}

// Histogram registers (or returns) a histogram. buckets is part of its
// registered shape: re-registering the name must repeat it.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets).hist
}

// CounterVec is a counter family with labels. Children are pre-bound with
// With at wiring time; the returned *Counter is then allocation-free on
// the hot path.
type CounterVec struct{ m *metric }

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec " + name + " needs at least one label")
	}
	return &CounterVec{m: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the child counter for the given label values, creating it
// on first use. Call at wiring time, not per observation.
func (v *CounterVec) With(values ...string) *Counter {
	return v.m.child(values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ m *metric }

// GaugeVec registers (or returns) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec " + name + " needs at least one label")
	}
	return &GaugeVec{m: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the child gauge for the given label values, creating it on
// first use. Call at wiring time, not per observation.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.m.child(values).gauge
}

// HistogramVec is a histogram family with labels. Children are pre-bound
// with With at wiring time; the returned *Histogram is then
// allocation-free on the hot path.
type HistogramVec struct{ m *metric }

// HistogramVec registers (or returns) a labelled histogram family; buckets
// is part of its shape, as for Histogram.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec " + name + " needs at least one label")
	}
	return &HistogramVec{m: r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the child histogram for the given label values, creating
// it on first use. Call at wiring time, not per observation.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.m.child(values).hist
}

// child returns the pre-bound child for values, creating it if needed.
func (m *metric) child(values []string) *child {
	if len(values) != len(m.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", m.name, len(m.labels), len(values)))
	}
	key := labelKey(values)
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.byKey[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	switch m.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = &Histogram{}
	}
	m.children = append(m.children, c)
	m.byKey[key] = c
	m.size.Add(1)
	return c
}

// labelKey joins label values unambiguously (values may contain commas).
func labelKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s,", len(v), v)
	}
	return key
}

// Snapshot is a point-in-time copy of one metric (or one vec child) for
// reporting.
type Snapshot struct {
	Name   string
	Kind   Kind
	Labels []Label
	// Value is the counter count or gauge value.
	Value float64
	// Count and Sum are set for histograms.
	Count uint64
	Sum   float64
}

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// Metric is a live handle on one exported metric — a plain metric or one
// child of a vec. Where a Snapshot copies the values out, a Metric reads
// them in place: a scraper resolves its handles once and then reads
// Counter, Gauge or Histogram (the one Kind selects) every round.
type Metric struct {
	Name   string
	Kind   Kind
	Labels []Label

	Counter   *Counter
	Gauge     *Gauge
	Histogram *Histogram
}

// Snapshot copies the metric's current value out.
func (m Metric) Snapshot() Snapshot {
	s := Snapshot{Name: m.Name, Kind: m.Kind, Labels: m.Labels}
	switch m.Kind {
	case KindCounter:
		s.Value = float64(m.Counter.Value())
	case KindGauge:
		s.Value = m.Gauge.Value()
	case KindHistogram:
		s.Count = m.Histogram.Count()
		s.Sum = m.Histogram.Sum()
	}
	return s
}

// Size is the number of handles Metrics would return. It only grows, so
// a scraper that resolved its handles at one size re-resolves exactly
// when Size has moved.
//
//flex:hotpath
func (r *Registry) Size() int { return int(r.size.Load()) }

// Metrics returns a live handle on every metric (vec children expanded)
// in registration order, children in creation order.
func (r *Registry) Metrics() []Metric {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make([]Metric, 0, r.Size())
	for _, m := range metrics {
		if len(m.labels) == 0 {
			out = append(out, m.handle(nil, m.counter, m.gauge, m.hist))
			continue
		}
		m.mu.Lock()
		children := append([]*child(nil), m.children...)
		m.mu.Unlock()
		for _, c := range children {
			out = append(out, m.handle(c.values, c.counter, c.gauge, c.hist))
		}
	}
	return out
}

func (m *metric) handle(values []string, c *Counter, g *Gauge, h *Histogram) Metric {
	out := Metric{Name: m.name, Kind: m.kind, Counter: c, Gauge: g, Histogram: h}
	for i, v := range values {
		out.Labels = append(out.Labels, Label{Name: m.labels[i], Value: v})
	}
	return out
}

// Snapshots copies every metric (vec children expanded) in registration
// order, children in creation order.
func (r *Registry) Snapshots() []Snapshot {
	metrics := r.Metrics()
	out := make([]Snapshot, len(metrics))
	for i, m := range metrics {
		out[i] = m.Snapshot()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}
