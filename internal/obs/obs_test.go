package obs

import (
	"math"
	"strings"
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
	g.Add(-1)
	if got := g.Value(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("gauge = %v, want 1.5", got)
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

func TestHistogramBuckets(t *testing.T) {
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
	b := h.Buckets()
	wantCum := []uint64{1, 3, 4, 5, 6}
	for i, want := range wantCum {
		if b[i].Count != want {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b[i].Le, b[i].Count, want)
		}
	}
	if !math.IsInf(b[len(b)-1].Le, 1) {
		t.Fatalf("final bucket le = %v, want +Inf", b[len(b)-1].Le)
	}
	snap := r.Snapshots()[0]
	if snap.Count != h.Count() || snap.Sum != h.Sum() || len(snap.Buckets) != len(b) {
		t.Fatalf("snapshot count %d sum %v with %d buckets, want the histogram's %d, %v, %d",
			snap.Count, snap.Sum, len(snap.Buckets), h.Count(), h.Sum(), len(b))
	}
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
		{"Gauge.Add", func() { g.Add(0.5) }},
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

func TestWritePrometheusIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("flex_steps_total", "controller steps").Add(7)
	r.Gauge("flex_budget_seconds", "latency budget").Set(10)
	h := r.Histogram("flex_shed_latency_seconds", "detect to enforce", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(3)
	v := r.CounterVec("flex_actions_total", "by kind", "kind")
	v.With("shutdown").Inc()
	v.With("throttle").Add(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE flex_steps_total counter",
		"flex_steps_total 7",
		"flex_budget_seconds 10",
		`flex_actions_total{kind="shutdown"} 1`,
		`flex_shed_latency_seconds_bucket{le="+Inf"} 2`,
		"flex_shed_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("output does not parse as Prometheus text format: %v\n%s", err, out)
	}
}

func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"bad name":        "9metric 1\n",
		"no value":        "metric\n",
		"bad value":       "metric abc\n",
		"bad comment":     "# NOPE metric counter\n",
		"unknown type":    "# TYPE metric zigzag\n",
		"no inf bucket":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"unquoted labels": "m{k=v} 1\n",
		"empty":           "",
	}
	for name, in := range cases {
		if err := ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
}
