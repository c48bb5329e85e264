package tsdb

import (
	"testing"
	"time"
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
	if last, ok := s.Last(); !ok || last.Value != 4 {
		t.Fatalf("Last = %+v, %v", last, ok)
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
// a default 24-minute episode at 500 ms (2881 points, both ends), so /query
// still answers for the episode's first minute at its end.
func TestDefaultRingHoldsAnEpisode(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	const points = 24*60*2 + 1
	for i := 0; i < points; i++ {
		s.Append(t0.Add(time.Duration(i)*DefaultSampleInterval), float64(i))
	}
	raw := s.Raw()
	if len(raw) != points || raw[0].Value != 0 || !raw[0].Time.Equal(t0) {
		t.Fatalf("ring kept %d points from %+v, want all %d from t0", len(raw), raw[0], points)
	}
	pts := s.Query(QueryRange{From: t0, To: t0.Add(time.Minute - time.Nanosecond), Step: 2 * time.Second, Agg: AggCount})
	if len(pts) != 30 {
		t.Fatalf("first minute at step=2s: %d points, want 30", len(pts))
	}
	for i, p := range pts {
		if p.Value != 4 || !p.Time.Equal(t0.Add(time.Duration(i)*2*time.Second)) {
			t.Fatalf("pts[%d] = %+v, want 4 points from %v", i, p, t0.Add(time.Duration(i)*2*time.Second))
		}
	}
}

func TestStoreGetOrCreate(t *testing.T) {
	st := NewStore(Options{})
	a := st.Series("a")
	if st.Series("a") != a {
		t.Fatal("Series is not get-or-create")
	}
	if _, ok := st.Lookup("b"); ok {
		t.Fatal("Lookup created a series")
	}
	st.Series("b")
	names := st.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
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
