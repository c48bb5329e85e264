package tsdb

import (
	"testing"
	"time"

	"flex/internal/obs"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func TestAppendAndRaw(t *testing.T) {
	st := NewStore(Options{RawCapacity: 8})
	s := st.Series("x")
	for i := 0; i < 5; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	raw := s.Raw()
	if len(raw) != 5 {
		t.Fatalf("len(raw) = %d, want 5", len(raw))
	}
	for i, p := range raw {
		if p.Value != float64(i) || !p.Time.Equal(t0.Add(time.Duration(i)*time.Second)) {
			t.Fatalf("raw[%d] = %+v", i, p)
		}
	}
}

func TestRawRingWraparound(t *testing.T) {
	st := NewStore(Options{RawCapacity: 4})
	s := st.Series("x")
	for i := 0; i < 10; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	raw := s.Raw()
	if len(raw) != 4 {
		t.Fatalf("len(raw) = %d, want 4", len(raw))
	}
	for i, p := range raw {
		if want := float64(6 + i); p.Value != want {
			t.Fatalf("raw[%d].Value = %v, want %v", i, p.Value, want)
		}
	}
}

// TestDefaultRingHoldsAnEpisode: the default ring keeps every audit tick of
// a default 24-minute episode at 500 ms (2881 points, both ends), so the
// episode's first minute is still there at its end.
func TestDefaultRingHoldsAnEpisode(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	const points = 24*60*2 + 1
	for i := 0; i < points; i++ {
		s.Append(t0.Add(time.Duration(i)*500*time.Millisecond), float64(i))
	}
	raw := s.Raw()
	if len(raw) != points || raw[0].Value != 0 || !raw[0].Time.Equal(t0) {
		t.Fatalf("ring kept %d points from %+v, want all %d from t0", len(raw), raw[0], points)
	}
	for i, p := range raw[:120] { // the first minute
		if p.Value != float64(i) || !p.Time.Equal(t0.Add(time.Duration(i)*500*time.Millisecond)) {
			t.Fatalf("raw[%d] = %+v, want point %d of the first minute", i, p, i)
		}
	}
}

func TestStoreGetOrCreate(t *testing.T) {
	st := NewStore(Options{})
	a := st.Series("a")
	if st.Series("a") != a {
		t.Fatal("Series is not get-or-create")
	}
	if st.Series("b") == a || len(st.byName) != 2 {
		t.Fatalf("a second key shares a series or was not stored: %d series", len(st.byName))
	}
}

func TestSeriesKey(t *testing.T) {
	got := SeriesKey("flex_safety_ups_headroom_watts", [2]string{"ups", "UPS-1"})
	want := "flex_safety_ups_headroom_watts;ups=UPS-1"
	if got != want {
		t.Fatalf("SeriesKey = %q, want %q", got, want)
	}
	if got := SeriesKey("plain"); got != "plain" {
		t.Fatalf("SeriesKey = %q", got)
	}
}

// TestAppendAllocationFree is the acceptance criterion: sample ingest is
// allocation-free on the hot path (AllocsPerRun = 0), matching the
// //flex:hotpath contract flexlint enforces statically.
func TestAppendAllocationFree(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		i++
		s.Append(t0.Add(time.Duration(i)*137*time.Millisecond), float64(i))
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v per op, want 0", allocs)
	}
}

func TestSamplerScrape(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("flex_demo_gauge", "")
	c := reg.CounterVec("flex_demo_total", "", "kind").With("a")
	h := reg.Histogram("flex_demo_latency_seconds", "", nil)
	st := NewStore(Options{})
	smp := &Sampler{Registry: reg, Store: st}

	g.Set(42)
	c.Inc()
	h.Observe(0.5)
	smp.Tick(t0)
	g.Set(43)
	smp.Tick(t0.Add(time.Second))

	for key, want := range map[string][]float64{
		"flex_demo_gauge":                 {42, 43},
		"flex_demo_total;kind=a":          {1, 1},
		"flex_demo_latency_seconds_count": {1, 1},
		"flex_demo_latency_seconds_sum":   {0.5, 0.5},
	} {
		raw := st.Series(key).Raw()
		if len(raw) != len(want) {
			t.Fatalf("%s: %d points, want %d", key, len(raw), len(want))
		}
		for i, p := range raw {
			if p.Value != want[i] || !p.Time.Equal(t0.Add(time.Duration(i)*time.Second)) {
				t.Fatalf("%s[%d] = %+v, want %v at tick %d", key, i, p, want[i], i)
			}
		}
	}
	if len(st.byName) != 4 {
		t.Fatalf("the scrape stored %d series, want 4", len(st.byName))
	}
}
