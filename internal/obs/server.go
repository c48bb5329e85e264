package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"time"

	"flex/internal/obs/recorder"
)

// ServerConfig wires the introspection handler.
type ServerConfig struct {
	Registry *Registry
	// Tracer is optional; without it /traces serves an empty list.
	Tracer *Tracer
	// Events is optional; without it /events serves an empty list. Join
	// /traces entries to /events streams on the shared episode ID.
	Events *recorder.Recorder
	// Query, SLO and Health are optional plain handlers mounted at
	// /query, /slo and /healthz. They are http.Handler (not concrete
	// types) because their providers — tsdb.Store.Handler,
	// slo.Auditor.SLOHandler / HealthHandler — live in packages that
	// import obs; holding them concretely here would cycle.
	Query  http.Handler
	SLO    http.Handler
	Health http.Handler
	// Fleet is optional, mounted at /fleet: the fleet aggregator's latest
	// snapshot (fleet.Fleet.Handler). Same http.Handler indirection as
	// Query/SLO/Health — the fleet package imports obs.
	Fleet http.Handler
	// FleetTraces is optional, mounted at /fleet/traces: stitched
	// per-episode stage waterfalls (fleet.Fleet.TracesHandler).
	FleetTraces http.Handler
}

// NewHandler returns the live introspection surface:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    expvar-style JSON (cmdline, memstats, metrics)
//	/debug/pprof/  the standard runtime profiles
//	/traces        recent detect→plan→act traces as JSON; filters:
//	               since (min seq), from (RFC3339 or unix seconds),
//	               episode, limit
//	/events        flight-recorder events as JSON; filters: episode, type,
//	               actor, subject, min_seq, max_seq, since (alias for
//	               min_seq+1, for "everything after what I saw"), from/to
//	               (RFC3339 or unix seconds), causes, limit.
//	               ?episode=N defaults to causes=1, returning the episode's
//	               full causal chain (triggering samples included).
//	/query         tsdb series queries (when ServerConfig.Query is wired)
//	/slo           SLO burn rates and probe state (when SLO is wired)
//	/healthz       ready/degraded/unsafe verdict (when Health is wired)
//	/fleet         fleet aggregator snapshot (when Fleet is wired);
//	               ?room=NAME narrows to one room's status
//	/fleet/traces  stitched per-episode stage waterfalls (when FleetTraces
//	               is wired); ?episode=N narrows to one episode,
//	               ?limit=K keeps the newest K episodes
//
// Mount it behind an opt-in -listen flag; the handler itself performs no
// authentication.
func NewHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		index := "flex obs endpoints:\n  /metrics\n  /debug/vars\n  /debug/pprof/\n  /traces\n  /events\n"
		if cfg.Query != nil {
			index += "  /query\n"
		}
		if cfg.SLO != nil {
			index += "  /slo\n"
		}
		if cfg.Health != nil {
			index += "  /healthz\n"
		}
		if cfg.Fleet != nil {
			index += "  /fleet\n"
		}
		if cfg.FleetTraces != nil {
			index += "  /fleet/traces\n"
		}
		_, _ = w.Write([]byte(index))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if cfg.Events == nil {
			_, _ = w.Write([]byte("[]\n"))
			return
		}
		f, err := eventFilter(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		events := cfg.Events.Query(f)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is note it for the scraper.
			_, _ = w.Write([]byte("\n# export error: " + err.Error() + "\n"))
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		writeExpvar(w, cfg.Registry)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if cfg.Tracer == nil {
			_, _ = w.Write([]byte("[]\n"))
			return
		}
		f, err := traceFilter(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := cfg.Tracer.WriteJSONFiltered(w, f); err != nil {
			_, _ = w.Write([]byte("\n"))
		}
	})
	if cfg.Query != nil {
		mux.Handle("/query", cfg.Query)
	}
	if cfg.SLO != nil {
		mux.Handle("/slo", cfg.SLO)
	}
	if cfg.Health != nil {
		mux.Handle("/healthz", cfg.Health)
	}
	if cfg.Fleet != nil {
		mux.Handle("/fleet", cfg.Fleet)
	}
	if cfg.FleetTraces != nil {
		mux.Handle("/fleet/traces", cfg.FleetTraces)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartServer binds addr (":0" picks a free port) and serves the
// introspection handler in a background goroutine. It returns the bound
// address and a stop function that closes the listener and any in-flight
// connections. The commands mount this behind their -listen flags.
func StartServer(addr string, cfg ServerConfig) (boundAddr string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewHandler(cfg)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// eventFilter parses /events query parameters into a recorder.Filter.
func eventFilter(r *http.Request) (recorder.Filter, error) {
	var f recorder.Filter
	q := r.URL.Query()
	parseUint := func(key string, dst *uint64) error {
		s := q.Get(key)
		if s == "" {
			return nil
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return &badParamError{key, s}
		}
		*dst = v
		return nil
	}
	if err := parseUint("episode", &f.Episode); err != nil {
		return f, err
	}
	if err := parseUint("min_seq", &f.MinSeq); err != nil {
		return f, err
	}
	if err := parseUint("max_seq", &f.MaxSeq); err != nil {
		return f, err
	}
	// since=<seq> means "everything after the last seq I saw" — the
	// incremental-poll idiom; it translates to MinSeq = since+1.
	var since uint64
	if err := parseUint("since", &since); err != nil {
		return f, err
	}
	if since != 0 {
		f.MinSeq = since + 1
	}
	if s := q.Get("from"); s != "" {
		t, err := parseQueryTime(s)
		if err != nil {
			return f, &badParamError{"from", s}
		}
		f.From = t
	}
	if s := q.Get("to"); s != "" {
		t, err := parseQueryTime(s)
		if err != nil {
			return f, &badParamError{"to", s}
		}
		f.To = t
	}
	if s := q.Get("type"); s != "" {
		typ, err := recorder.ParseType(s)
		if err != nil {
			return f, &badParamError{"type", s}
		}
		f.Type = typ
	}
	f.Actor = q.Get("actor")
	f.Subject = q.Get("subject")
	// Episode queries serve the causal chain by default; ?causes=0 opts
	// out, ?causes=1 opts in for any query.
	f.WithCauses = f.Episode != 0
	if s := q.Get("causes"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return f, &badParamError{"causes", s}
		}
		f.WithCauses = v
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return f, &badParamError{"limit", s}
		}
		f.Limit = v
	}
	return f, nil
}

// traceFilter parses /traces query parameters into a TraceFilter.
func traceFilter(r *http.Request) (TraceFilter, error) {
	var f TraceFilter
	q := r.URL.Query()
	if s := q.Get("since"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return f, &badParamError{"since", s}
		}
		f.MinSeq = v + 1
	}
	if s := q.Get("from"); s != "" {
		t, err := parseQueryTime(s)
		if err != nil {
			return f, &badParamError{"from", s}
		}
		f.From = t
	}
	if s := q.Get("episode"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return f, &badParamError{"episode", s}
		}
		f.Episode = v
	}
	if s := q.Get("limit"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return f, &badParamError{"limit", s}
		}
		f.Limit = v
	}
	return f, nil
}

// parseQueryTime accepts RFC3339 or integer unix seconds, matching the
// tsdb /query time syntax.
func parseQueryTime(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	return time.Time{}, &badParamError{"time", s}
}

type badParamError struct{ key, val string }

func (e *badParamError) Error() string {
	return "bad " + e.key + " parameter: " + strconv.Quote(e.val)
}

// WriteExpvar renders the registry in expvar's JSON shape — flat keys,
// plus the conventional cmdline and memstats entries — so existing expvar
// tooling can consume it. Histograms appear as their exact {count, sum,
// mean}: a quantile read off the buckets would be an interpolation.
func writeExpvar(w http.ResponseWriter, r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vars := map[string]interface{}{
		"cmdline": os.Args,
		"memstats": map[string]interface{}{
			"Alloc":      ms.Alloc,
			"TotalAlloc": ms.TotalAlloc,
			"Sys":        ms.Sys,
			"HeapAlloc":  ms.HeapAlloc,
			"HeapInuse":  ms.HeapInuse,
			"NumGC":      ms.NumGC,
			"PauseTotal": ms.PauseTotalNs,
		},
		"goroutines": runtime.NumGoroutine(),
	}
	for _, s := range r.Snapshots() {
		key := s.Name
		for _, l := range s.Labels {
			key += ";" + l.Name + "=" + l.Value
		}
		switch s.Kind {
		case KindHistogram:
			mean := 0.0
			if s.Count > 0 {
				mean = s.Sum / float64(s.Count)
			}
			vars[key] = map[string]interface{}{"count": s.Count, "sum": s.Sum, "mean": mean}
		default:
			vars[key] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(vars)
}
