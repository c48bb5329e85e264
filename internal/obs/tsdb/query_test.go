package tsdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flex/internal/obs"
)

func fill(s *Series, n int, step time.Duration, f func(i int) float64) {
	for i := 0; i < n; i++ {
		s.Append(t0.Add(time.Duration(i)*step), f(i))
	}
}

func TestQueryRawStep(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	fill(s, 10, time.Second, func(i int) float64 { return float64(i) })
	pts := s.Query(QueryRange{From: t0, To: t0.Add(10 * time.Second), Step: 2 * time.Second})
	if len(pts) != 5 {
		t.Fatalf("len(pts) = %d, want 5", len(pts))
	}
	// Each 2s step averages two consecutive values.
	if pts[0].Value != 0.5 || pts[4].Value != 8.5 {
		t.Fatalf("pts = %+v", pts)
	}
}

func TestQueryRollupSteps(t *testing.T) {
	st := NewStore(Options{RawCapacity: 8}) // force rollup reads
	s := st.Series("x")
	fill(s, 180, time.Second, func(i int) float64 { return float64(i) })
	// 10s step → 10s tier.
	pts := s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: Tier10s, Agg: AggMax})
	if len(pts) != 18 {
		t.Fatalf("10s step: len = %d, want 18", len(pts))
	}
	if pts[0].Value != 9 || pts[17].Value != 179 {
		t.Fatalf("10s maxes = %v ... %v", pts[0].Value, pts[17].Value)
	}
	// 1m step → 1m tier.
	pts = s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: Tier1m, Agg: AggCount})
	if len(pts) != 3 {
		t.Fatalf("1m step: len = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Value != 60 {
			t.Fatalf("pts[%d].Value = %v, want 60", i, p.Value)
		}
	}
	// 30s step re-buckets the 10s tier 3:1.
	pts = s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: 30 * time.Second, Agg: AggSum})
	if len(pts) != 6 {
		t.Fatalf("30s step: len = %d, want 6", len(pts))
	}
	if pts[0].Value != 435 { // sum 0..29
		t.Fatalf("pts[0].Value = %v, want 435", pts[0].Value)
	}
}

func TestQueryAggregations(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	fill(s, 4, time.Second, func(i int) float64 { return float64(i + 1) }) // 1..4
	r := QueryRange{From: t0, To: t0.Add(10 * time.Second), Step: Tier10s}
	for _, tc := range []struct {
		agg  Agg
		want float64
	}{
		{AggAvg, 2.5}, {AggMin, 1}, {AggMax, 4}, {AggSum, 10}, {AggCount, 4},
	} {
		r.Agg = tc.agg
		pts := s.Query(r)
		if len(pts) != 1 || pts[0].Value != tc.want {
			t.Fatalf("agg %v: pts = %+v, want [%v]", tc.agg, pts, tc.want)
		}
	}
}

// TestQueryLastIsExactOrRefused: agg=last reads the last raw point of each
// step; at a rollup step, whose buckets keep no last value, Query returns
// nothing and /query answers 400 naming the raw-step alternative instead
// of passing a bucket's average off as its last value.
func TestQueryLastIsExactOrRefused(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	fill(s, 4, time.Second, func(i int) float64 { return float64([]int{5, 1, 7, 2}[i]) })
	pts := s.Query(QueryRange{From: t0, To: t0.Add(10 * time.Second), Step: 2 * time.Second, Agg: AggLast})
	if len(pts) != 2 || pts[0].Value != 1 || pts[1].Value != 2 {
		t.Fatalf("raw agg=last = %+v, want 1 then 2", pts)
	}
	if pts := s.Query(QueryRange{From: t0, To: t0.Add(10 * time.Second), Step: Tier10s, Agg: AggLast}); pts != nil {
		t.Fatalf("rollup agg=last = %+v, want nothing", pts)
	}

	h := st.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=x&agg=last&step=10s&to="+t0.Add(10*time.Second).Format(time.RFC3339), nil))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "step=1s") {
		t.Fatalf("agg=last at step=10s: status %d, body %q; want 400 naming a raw step", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=x&agg=last&step=4s&to="+t0.Add(10*time.Second).Format(time.RFC3339), nil))
	var resp struct {
		Points []Point `json:"points"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); rr.Code != http.StatusOK || err != nil || len(resp.Points) != 1 || resp.Points[0].Value != 2 {
		t.Fatalf("agg=last at step=4s: status %d, %+v (%v); want one point of 2", rr.Code, resp.Points, err)
	}
}

func TestQueryHandler(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("flex_safety_budget_burn_ratio")
	fill(s, 30, time.Second, func(i int) float64 { return float64(i) })
	h := st.Handler()

	// Series listing.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query", nil))
	var listing struct {
		Series []string `json:"series"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing: %v", err)
	}
	if len(listing.Series) != 1 || listing.Series[0] != "flex_safety_budget_burn_ratio" {
		t.Fatalf("listing = %+v", listing)
	}

	// Range query with explicit window.
	rr = httptest.NewRecorder()
	req := httptest.NewRequest("GET",
		"/query?series=flex_safety_budget_burn_ratio&from="+t0.Format(time.RFC3339)+
			"&to="+t0.Add(30*time.Second).Format(time.RFC3339)+"&step=10s&agg=max", nil)
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rr.Code, rr.Body.String())
	}
	var resp struct {
		Series string  `json:"series"`
		Step   string  `json:"step"`
		Agg    string  `json:"agg"`
		Points []Point `json:"points"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Agg != "max" || resp.Step != "10s" || len(resp.Points) != 3 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Points[2].Value != 29 {
		t.Fatalf("points[2] = %+v", resp.Points[2])
	}

	// Unknown series → 404; bad params → 400.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=nope", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown series status = %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=flex_safety_budget_burn_ratio&step=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad step status = %d", rr.Code)
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

	if smp.Ticks() != 2 {
		t.Fatalf("Ticks = %d", smp.Ticks())
	}
	s, ok := st.Lookup("flex_demo_gauge")
	if !ok {
		t.Fatalf("gauge series missing; have %v", st.Names())
	}
	raw := s.Raw()
	if len(raw) != 2 || raw[0].Value != 42 || raw[1].Value != 43 {
		t.Fatalf("gauge raw = %+v", raw)
	}
	if _, ok := st.Lookup("flex_demo_total;kind=a"); !ok {
		t.Fatalf("labeled counter series missing; have %v", st.Names())
	}
	if _, ok := st.Lookup("flex_demo_latency_seconds_count"); !ok {
		t.Fatal("histogram count series missing")
	}
	if s, _ := st.Lookup("flex_demo_latency_seconds_sum"); s == nil {
		t.Fatal("histogram sum series missing")
	} else if last, _ := s.Last(); last.Value != 0.5 {
		t.Fatalf("histogram sum = %v", last.Value)
	}
}

func TestSamplerFilter(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("flex_keep", "").Set(1)
	reg.Gauge("drop_me", "").Set(1)
	st := NewStore(Options{})
	smp := &Sampler{Registry: reg, Store: st, Filter: func(name string) bool {
		return name == "flex_keep"
	}}
	smp.Tick(t0)
	if _, ok := st.Lookup("flex_keep"); !ok {
		t.Fatal("filtered-in series missing")
	}
	if _, ok := st.Lookup("drop_me"); ok {
		t.Fatal("filtered-out series present")
	}
}
