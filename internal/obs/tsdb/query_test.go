package tsdb

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"flex/internal/obs"
)

func fill(s *Series, n int, step time.Duration, f func(i int) float64) {
	for i := 0; i < n; i++ {
		s.Append(t0.Add(time.Duration(i)*step), f(i))
	}
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
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

// TestQueryRollupSteps: steps coarser than the sample cadence (10s, 1m and
// 30s over three minutes of 1s samples) aggregate every retained point of
// each interval.
func TestQueryRollupSteps(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	fill(s, 180, time.Second, func(i int) float64 { return float64(i) })
	pts := s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: 10 * time.Second, Agg: AggMax})
	if len(pts) != 18 {
		t.Fatalf("10s step: len = %d, want 18", len(pts))
	}
	if pts[0].Value != 9 || pts[17].Value != 179 {
		t.Fatalf("10s maxes = %v ... %v", pts[0].Value, pts[17].Value)
	}
	pts = s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: time.Minute, Agg: AggCount})
	if len(pts) != 3 {
		t.Fatalf("1m step: len = %d, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Value != 60 {
			t.Fatalf("pts[%d].Value = %v, want 60", i, p.Value)
		}
	}
	pts = s.Query(QueryRange{From: t0, To: t0.Add(3 * time.Minute), Step: 30 * time.Second, Agg: AggSum})
	if len(pts) != 6 {
		t.Fatalf("30s step: len = %d, want 6", len(pts))
	}
	if pts[0].Value != 435 { // sum 0..29
		t.Fatalf("pts[0].Value = %v, want 435", pts[0].Value)
	}
}

// scanQuery is the reference Query: the retained points inside [From, To]
// grouped by the Step interval they fall in, each group's aggregate computed
// from the group's values in append order.
func scanQuery(raw []Point, r QueryRange) []Point {
	groups := map[int64][]float64{}
	for _, p := range raw {
		if p.Time.Before(r.From) || p.Time.After(r.To) {
			continue
		}
		start := p.Time.UnixNano() / int64(r.Step) * int64(r.Step) // t0 is after the epoch
		groups[start] = append(groups[start], p.Value)
	}
	starts := make([]int64, 0, len(groups))
	for start := range groups {
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var out []Point
	for _, start := range starts {
		vs := groups[start]
		var sum float64
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			sum += v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		v := map[Agg]float64{
			AggAvg:   sum / float64(len(vs)),
			AggMin:   lo,
			AggMax:   hi,
			AggSum:   sum,
			AggCount: float64(len(vs)),
			AggLast:  vs[len(vs)-1],
		}[r.Agg]
		out = append(out, Point{Time: time.Unix(0, start), Value: v})
	}
	return out
}

// TestQueryAggregations holds every aggregation at every step, from below
// the sample cadence to a minute, to a scan of Raw(): the ring is the one
// source at any step, so every answer is exact.
func TestQueryAggregations(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	// 300 points 700 ms apart, off every step's grid, values out of order.
	fill(s, 300, 700*time.Millisecond, func(i int) float64 { return float64((i*37)%101) - 50.25 })
	raw := s.Raw()
	r := QueryRange{From: t0.Add(3 * time.Second), To: t0.Add(150 * time.Second)}
	for _, step := range []time.Duration{time.Second, 2 * time.Second, 10 * time.Second, 30 * time.Second, time.Minute} {
		for _, agg := range []Agg{AggAvg, AggMin, AggMax, AggSum, AggCount, AggLast} {
			r.Step, r.Agg = step, agg
			got, want := s.Query(r), scanQuery(raw, r)
			if len(want) == 0 || !samePoints(got, want) {
				t.Fatalf("step %v agg %v:\n got %+v\nwant %+v", step, agg, got, want)
			}
		}
	}
}

// queryRow is one Query over the first hour of a fresh series holding the
// values 1, 2, 3, ... at the offsets at from t0.
type queryRow struct {
	at   []time.Duration
	step time.Duration
	agg  Agg
	want []Point
}

func checkQueryRows(t *testing.T, rows []queryRow) {
	t.Helper()
	for i, row := range rows {
		s := NewStore(Options{}).Series("x")
		for k, d := range row.at {
			s.Append(t0.Add(d), float64(k+1))
		}
		got := s.Query(QueryRange{From: t0, To: t0.Add(time.Hour), Step: row.step, Agg: row.agg})
		if !samePoints(got, row.want) {
			t.Errorf("row %d (step %v, agg %v): got %+v, want %+v", i, row.step, row.agg, got, row.want)
		}
	}
}

// TestTickExactlyOnTierEdge: a virtual-clock tick landing exactly on a step
// edge opens the next interval instead of extending the previous one
// ([start, start+step) intervals).
func TestTickExactlyOnTierEdge(t *testing.T) {
	edge := []time.Duration{0, 10*time.Second - time.Nanosecond, 10 * time.Second}
	checkQueryRows(t, []queryRow{
		{edge, 10 * time.Second, AggCount, []Point{{t0, 2}, {t0.Add(10 * time.Second), 1}}},
		{edge, 10 * time.Second, AggLast, []Point{{t0, 2}, {t0.Add(10 * time.Second), 3}}},
		{[]time.Duration{59 * time.Second, 60 * time.Second}, time.Minute, AggCount, []Point{{t0, 1}, {t0.Add(time.Minute), 1}}},
	})
}

// TestGapsProduceNoEmptyBuckets: intervals without data are omitted, not
// filled.
func TestGapsProduceNoEmptyBuckets(t *testing.T) {
	gap := []time.Duration{0, 45 * time.Second}
	checkQueryRows(t, []queryRow{
		{gap, 10 * time.Second, AggSum, []Point{{t0, 1}, {t0.Add(40 * time.Second), 2}}},
		{gap, time.Second, AggMax, []Point{{t0, 1}, {t0.Add(45 * time.Second), 2}}},
		{gap, time.Minute, AggCount, []Point{{t0, 2}}},
	})
}

// TestQueryLastIsExactOrRefused: agg=last reads each step's last raw point
// at every step, 10s and 1m included, through Query and /query alike; what
// /query refuses is a malformed request, such as an unknown aggregation.
func TestQueryLastIsExactOrRefused(t *testing.T) {
	st := NewStore(Options{})
	s := st.Series("x")
	f := func(i int) float64 { return float64((i * 5) % 7) }
	fill(s, 90, time.Second, f)
	lastOf := func(step time.Duration) []Point {
		var want []Point
		per := int(step / time.Second)
		for k := 0; k*per < 90; k++ {
			want = append(want, Point{t0.Add(time.Duration(k) * step), f(min(k*per+per, 90) - 1)})
		}
		return want
	}
	to := t0.Add(90 * time.Second)
	h := st.Handler()
	for _, step := range []time.Duration{2 * time.Second, 10 * time.Second, time.Minute} {
		if pts := s.Query(QueryRange{From: t0, To: to, Step: step, Agg: AggLast}); !samePoints(pts, lastOf(step)) {
			t.Fatalf("Query agg=last step %v = %+v, want %+v", step, pts, lastOf(step))
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=x&agg=last&step="+step.String()+
			"&from="+t0.Format(time.RFC3339)+"&to="+to.Format(time.RFC3339), nil))
		var resp struct {
			Points []Point `json:"points"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); rr.Code != http.StatusOK || err != nil || !samePoints(resp.Points, lastOf(step)) {
			t.Fatalf("/query agg=last step=%v: status %d, %+v (%v); want 200 with %+v", step, rr.Code, resp.Points, err, lastOf(step))
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/query?series=x&agg=first", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("agg=first: status %d, want 400", rr.Code)
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
