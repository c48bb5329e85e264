package obs

import (
	"math"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flex_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("flex_test_gauge", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Get-or-create: same name and kind returns the same instance.
	if r.Counter("flex_test_total", "a counter") != c {
		t.Fatal("re-registering a counter returned a different instance")
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("flex_test_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("flex_test_total", "")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("flex test total", "")
}

func TestHistogramCountAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flex_test_latency_seconds", "", []float64{1, 2, 5, 10})
	for _, v := range []float64{0.5, 1.5, 1.7, 4, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-116.7) > 1e-9 {
		t.Fatalf("sum = %v, want 116.7", h.Sum())
	}
	snap := r.Snapshots()[0]
	if snap.Count != h.Count() || snap.Sum != h.Sum() {
		t.Fatalf("snapshot count %d sum %v, want the histogram's %d, %v", snap.Count, snap.Sum, h.Count(), h.Sum())
	}
	// The bounds are part of the registered shape.
	if r.Histogram("flex_test_latency_seconds", "", []float64{1, 2, 5, 10}) != h {
		t.Fatal("re-registering the same shape returned a different histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with other bounds did not panic")
		}
	}()
	r.Histogram("flex_test_latency_seconds", "", []float64{1, 2})
}

func TestVecChildrenAreBoundOnce(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("flex_test_actions_total", "by kind", "kind")
	a := v.With("shutdown")
	b := v.With("throttle")
	if v.With("shutdown") != a {
		t.Fatal("With returned a new child for the same label values")
	}
	a.Inc()
	a.Inc()
	b.Inc()
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	if snaps[0].Labels[0] != (Label{Name: "kind", Value: "shutdown"}) || snaps[0].Value != 2 {
		t.Fatalf("unexpected first child snapshot: %+v", snaps[0])
	}
	g := r.GaugeVec("flex_test_ups_watts_by_name", "by ups", "ups")
	g.With("UPS-1").Set(1.2e6)
	if got := g.With("UPS-1").Value(); math.Abs(got-1.2e6) > 1 {
		t.Fatalf("gauge child = %v", got)
	}
}

// TestHotPathZeroAllocations is the ISSUE acceptance check: every metric
// update a controller step performs must allocate nothing.
func TestHotPathZeroAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flex_test_total", "")
	g := r.Gauge("flex_test_gauge", "")
	h := r.Histogram("flex_test_hist", "", LatencyBuckets())
	child := r.CounterVec("flex_test_vec_total", "", "kind").With("shutdown")
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Histogram.Observe", func() { h.Observe(2.5) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Second) }},
		{"CounterVec child Inc", func() { child.Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, allocs)
		}
	}
}
