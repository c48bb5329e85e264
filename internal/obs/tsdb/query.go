package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Agg selects how a query step aggregates the underlying data.
type Agg int

// Aggregations. AggAvg is the default.
const (
	AggAvg Agg = iota
	AggMin
	AggMax
	AggSum
	AggCount
	AggLast
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggLast:
		return "last"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// ParseAgg resolves an aggregation name.
func ParseAgg(s string) (Agg, error) {
	switch s {
	case "", "avg":
		return AggAvg, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "last":
		return AggLast, nil
	}
	return AggAvg, fmt.Errorf("tsdb: unknown agg %q", s)
}

// defaultStep is the query step when none is given.
const defaultStep = 10 * time.Second

// QueryRange selects data for Series.Query: the closed window [From, To]
// re-bucketed into Step-wide intervals.
type QueryRange struct {
	From, To time.Time
	Step     time.Duration
	Agg      Agg
}

// Query evaluates r against the retained points, at any step. Each
// returned point carries the start of its step interval [k·Step,
// (k+1)·Step), so a point exactly on an edge opens the next one, and the
// aggregate of the points inside it; intervals without data are omitted
// (no NaN filling).
func (s *Series) Query(r QueryRange) []Point {
	if r.Step <= 0 {
		r.Step = defaultStep
	}
	if !r.To.After(r.From) {
		return nil
	}
	step, from, to := int64(r.Step), r.From.UnixNano(), r.To.UnixNano()
	var out []Point
	var cur interval
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := 0; k < s.n; k++ {
		p := s.at(k)
		if p.at < from || p.at > to {
			continue
		}
		start := p.at - p.at%step
		if start > p.at { // % truncates toward zero before the epoch
			start -= step
		}
		if cur.count > 0 && start != cur.start {
			out = append(out, cur.point(r.Agg))
			cur.count = 0
		}
		if cur.count == 0 {
			cur = interval{start: start, min: p.v, max: p.v}
		}
		cur.min, cur.max = min(cur.min, p.v), max(cur.max, p.v)
		cur.sum += p.v
		cur.last = p.v
		cur.count++
	}
	if cur.count > 0 {
		out = append(out, cur.point(r.Agg))
	}
	return out
}

// interval accumulates the points of one step interval.
type interval struct {
	start               int64 // UnixNano
	min, max, sum, last float64
	count               int
}

func (iv interval) point(a Agg) Point {
	v := iv.sum / float64(iv.count) // AggAvg
	switch a {
	case AggMin:
		v = iv.min
	case AggMax:
		v = iv.max
	case AggSum:
		v = iv.sum
	case AggCount:
		v = float64(iv.count)
	case AggLast:
		v = iv.last
	}
	return slot{at: iv.start, v: v}.point()
}

// Handler serves the /query endpoint:
//
//	/query                                  list series names
//	/query?series=K&from=T&to=T&step=D&agg=A  evaluate one series
//
// from/to accept RFC3339 or integer unix seconds; step accepts a Go
// duration (default 10s); agg one of avg|min|max|sum|count|last, each
// exact at any step. Omitted to defaults to the series' newest timestamp;
// omitted from defaults to to−5m. The handler never reads the wall clock,
// so responses are deterministic under the virtual clock.
func (st *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		q := r.URL.Query()
		name := q.Get("series")
		if name == "" {
			writeJSON(w, map[string]interface{}{"series": st.Names()})
			return
		}
		s, ok := st.Lookup(name)
		if !ok {
			http.Error(w, "unknown series "+strconv.Quote(name), http.StatusNotFound)
			return
		}
		var qr QueryRange
		var err error
		if qr.Agg, err = ParseAgg(q.Get("agg")); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		qr.Step = defaultStep
		if v := q.Get("step"); v != "" {
			if qr.Step, err = time.ParseDuration(v); err != nil || qr.Step <= 0 {
				http.Error(w, "bad step parameter: "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
		}
		last, _ := s.Last()
		qr.To = last.Time
		if v := q.Get("to"); v != "" {
			if qr.To, err = parseTime(v); err != nil {
				http.Error(w, "bad to parameter: "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
		}
		qr.From = qr.To.Add(-5 * time.Minute)
		if v := q.Get("from"); v != "" {
			if qr.From, err = parseTime(v); err != nil {
				http.Error(w, "bad from parameter: "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
		}
		pts := s.Query(qr)
		writeJSON(w, map[string]interface{}{
			"series": name,
			"from":   qr.From,
			"to":     qr.To,
			"step":   qr.Step.String(),
			"agg":    qr.Agg.String(),
			"points": pts,
		})
	})
}

// parseTime accepts RFC3339 or integer unix seconds.
func parseTime(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("tsdb: unparseable time %q", s)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
