package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs/recorder"
)

func testHandler(t *testing.T) http.Handler {
	t.Helper()
	r := NewRegistry()
	r.Counter("flex_test_steps_total", "steps").Add(3)
	h := r.Histogram("flex_test_shed_latency_seconds", "latency", []float64{1, 10})
	h.Observe(2)
	clk := clock.NewVirtual(time.Unix(0, 0))
	tr := NewTracer(4)
	trace := tr.Start("step", clk.Now())
	clk.Advance(time.Second)
	trace.Finish(clk.Now())
	return NewHandler(ServerConfig{Registry: r, Tracer: tr})
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestHandlerMetrics(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "flex_test_steps_total 3") {
		t.Fatalf("missing counter:\n%s", body)
	}
	if err := ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
}

func TestHandlerDebugVars(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var vars map[string]interface{}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"cmdline", "memstats", "flex_test_steps_total"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("missing %q in /debug/vars", key)
		}
	}
	// A histogram reports what it knows exactly, and no quantile.
	hist, _ := vars["flex_test_shed_latency_seconds"].(map[string]interface{})
	want := map[string]interface{}{"count": 1.0, "sum": 2.0, "mean": 2.0}
	if !reflect.DeepEqual(hist, want) {
		t.Errorf("histogram in /debug/vars = %v, want %v", hist, want)
	}
}

func TestHandlerTraces(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var traces []map[string]interface{}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0]["name"] != "step" {
		t.Fatalf("unexpected traces: %v", traces)
	}
}

func TestHandlerPprofIndex(t *testing.T) {
	h := testHandler(t)
	code, body := get(t, h, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d, body %.80q", code, body)
	}
}

func TestHandlerNotFound(t *testing.T) {
	h := testHandler(t)
	if code, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

// filterHandler builds a handler whose recorder holds five events (1s
// apart, starting at unix 1000) and whose tracer holds three traces, one
// tagged with episode 7 — the fixture for the /events and /traces filter
// tests.
func filterHandler(t *testing.T) http.Handler {
	t.Helper()
	rec := recorder.New(16)
	base := time.Unix(1000, 0).UTC()
	types := []recorder.Type{
		recorder.TypeUPSFail,
		recorder.TypeOverdrawDetect,
		recorder.TypePlanStart,
		recorder.TypePlanCommit,
		recorder.TypeEpisodeClose,
	}
	for i, typ := range types {
		rec.Emit(recorder.Event{
			Time:    base.Add(time.Duration(i) * time.Second),
			Type:    typ,
			Actor:   "ctl-1",
			Subject: "ups-1",
		})
	}
	clk := clock.NewVirtual(base)
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		trace := tr.Start("plan", clk.Now())
		if i == 1 {
			trace.Join(7, 0)
		}
		clk.Advance(time.Second)
		trace.Finish(clk.Now())
	}
	return NewHandler(ServerConfig{Registry: NewRegistry(), Tracer: tr, Events: rec})
}

// getTraces decodes a /traces response into generic maps (the trace JSON
// shape is asserted field-by-field where it matters).
func getTraces(t *testing.T, h http.Handler, path string) []map[string]interface{} {
	t.Helper()
	code, body := get(t, h, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, code, body)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, body)
	}
	return out
}

func TestHandlerEventsSince(t *testing.T) {
	h := filterHandler(t)
	// since=3 is the incremental-poll idiom: strictly after seq 3.
	events := getEvents(t, h, "/events?since=3")
	if len(events) != 2 {
		t.Fatalf("since=3 returned %d events, want 2: %v", len(events), events)
	}
	if events[0].Seq != 4 {
		t.Errorf("first event seq = %d, want 4", events[0].Seq)
	}
	// since=5 (the latest seq) must return the empty tail.
	if events := getEvents(t, h, "/events?since=5"); len(events) != 0 {
		t.Errorf("since=<latest> returned %d events, want 0", len(events))
	}
}

func TestHandlerEventsFromTo(t *testing.T) {
	h := filterHandler(t)
	// Events sit at unix 1000..1004; from=1002 keeps the last three, and
	// stacking to=1003 narrows to two. Both unix-seconds and RFC3339 forms
	// must parse.
	if events := getEvents(t, h, "/events?from=1002"); len(events) != 3 {
		t.Fatalf("from=1002 returned %d events, want 3: %v", len(events), events)
	}
	events := getEvents(t, h, "/events?from=1002&to=1003")
	if len(events) != 2 {
		t.Fatalf("from&to returned %d events, want 2: %v", len(events), events)
	}
	rfc := time.Unix(1002, 0).UTC().Format(time.RFC3339)
	if events := getEvents(t, h, "/events?from="+url.QueryEscape(rfc)); len(events) != 3 {
		t.Fatalf("RFC3339 from returned %d events, want 3", len(events))
	}
	if code, _ := get(t, h, "/events?from=not-a-time"); code != http.StatusBadRequest {
		t.Errorf("bad from parameter: status %d, want 400", code)
	}
}

func TestHandlerTracesFilters(t *testing.T) {
	h := filterHandler(t)
	if traces := getTraces(t, h, "/traces"); len(traces) != 3 {
		t.Fatalf("unfiltered /traces returned %d, want 3", len(traces))
	}
	// since=<seq> — strictly after.
	traces := getTraces(t, h, "/traces?since=1")
	if len(traces) != 2 {
		t.Fatalf("since=1 returned %d traces, want 2: %v", len(traces), traces)
	}
	// from=<time> — traces start at unix 1000, 1001, 1002.
	if traces := getTraces(t, h, "/traces?from=1001"); len(traces) != 2 {
		t.Fatalf("from=1001 returned %d traces, want 2", len(traces))
	}
	// episode filter keeps only the tagged trace.
	traces = getTraces(t, h, "/traces?episode=7")
	if len(traces) != 1 || traces[0]["episode"].(float64) != 7 {
		t.Fatalf("episode=7 returned %v", traces)
	}
	if traces := getTraces(t, h, "/traces?limit=1"); len(traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(traces))
	}
	if code, _ := get(t, h, "/traces?since=x"); code != http.StatusBadRequest {
		t.Errorf("bad since parameter: status %d, want 400", code)
	}
}

// TestHandlerOptionalMounts checks that /query, /slo and /healthz are 404
// until wired, and routed verbatim once wired.
func TestHandlerOptionalMounts(t *testing.T) {
	bare := testHandler(t)
	for _, path := range []string{"/query", "/slo", "/healthz"} {
		if code, _ := get(t, bare, path); code != http.StatusNotFound {
			t.Errorf("unwired %s: status %d, want 404", path, code)
		}
	}
	stub := func(name string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(name))
		})
	}
	wired := NewHandler(ServerConfig{
		Registry: NewRegistry(),
		Query:    stub("query"),
		SLO:      stub("slo"),
		Health:   stub("health"),
	})
	for path, want := range map[string]string{"/query": "query", "/slo": "slo", "/healthz": "health"} {
		code, body := get(t, wired, path)
		if code != http.StatusOK || body != want {
			t.Errorf("%s: status %d body %q, want 200 %q", path, code, body, want)
		}
	}
	// The index advertises the wired endpoints.
	_, index := get(t, wired, "/")
	for _, want := range []string{"/query", "/slo", "/healthz"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %s:\n%s", want, index)
		}
	}
}
