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

// QueryRange selects data for Series.Query: the half-open window
// [From, To] re-bucketed into Step-wide intervals.
type QueryRange struct {
	From, To time.Time
	Step     time.Duration
	Agg      Agg
}

// Query evaluates r against the series, choosing the finest source tier
// whose width does not exceed the step: raw points for sub-10s steps,
// the 10s rollup for steps in [10s, 1m), and the 1m rollup beyond. Each
// returned point carries the start of its step interval; intervals
// without data are omitted (no NaN filling). A rollup bucket keeps no last
// value, so AggLast is answered from raw points only: at a rollup step it
// returns nil.
func (s *Series) Query(r QueryRange) []Point {
	if r.Step <= 0 {
		r.Step = Tier10s
	}
	if !r.To.After(r.From) {
		return nil
	}
	if r.Step < Tier10s {
		return rebucketPoints(s.Raw(), r)
	}
	if r.Agg == AggLast {
		return nil
	}
	width := Tier10s
	if r.Step >= Tier1m {
		width = Tier1m
	}
	return rebucketBuckets(s.Buckets(width), r)
}

// rebucketPoints folds raw points into step intervals.
func rebucketPoints(pts []Point, r QueryRange) []Point {
	step := int64(r.Step)
	from, to := r.From.UnixNano(), r.To.UnixNano()
	var out []Point
	var cur bucket
	cur.start = startUnset
	var lastV float64
	flush := func() {
		if cur.start != startUnset && cur.count > 0 {
			v := aggValue(cur, r.Agg)
			if r.Agg == AggLast {
				v = lastV
			}
			out = append(out, Point{Time: time.Unix(0, cur.start), Value: v})
		}
	}
	for _, p := range pts {
		tn := p.Time.UnixNano()
		if tn < from || tn > to {
			continue
		}
		start := tn - mod(tn, step)
		if start != cur.start {
			flush()
			cur = bucket{start: start, min: p.Value, max: p.Value, sum: p.Value, count: 1}
			lastV = p.Value
			continue
		}
		if p.Value < cur.min {
			cur.min = p.Value
		}
		if p.Value > cur.max {
			cur.max = p.Value
		}
		cur.sum += p.Value
		cur.count++
		lastV = p.Value
	}
	flush()
	return out
}

// rebucketBuckets folds rollup buckets into (coarser or equal) step
// intervals.
func rebucketBuckets(bks []Bucket, r QueryRange) []Point {
	step := int64(r.Step)
	from, to := r.From.UnixNano(), r.To.UnixNano()
	var out []Point
	var cur bucket
	cur.start = startUnset
	flush := func() {
		if cur.start != startUnset && cur.count > 0 {
			out = append(out, Point{Time: time.Unix(0, cur.start), Value: aggValue(cur, r.Agg)})
		}
	}
	for _, b := range bks {
		tn := b.Start.UnixNano()
		if tn < from || tn > to || b.Count == 0 {
			continue
		}
		start := tn - mod(tn, step)
		if start != cur.start {
			flush()
			cur = bucket{start: start, min: b.Min, max: b.Max, sum: b.Sum, count: b.Count}
			continue
		}
		if b.Min < cur.min {
			cur.min = b.Min
		}
		if b.Max > cur.max {
			cur.max = b.Max
		}
		cur.sum += b.Sum
		cur.count += b.Count
	}
	flush()
	return out
}

func aggValue(b bucket, a Agg) float64 {
	switch a {
	case AggMin:
		return b.min
	case AggMax:
		return b.max
	case AggSum:
		return b.sum
	case AggCount:
		return float64(b.count)
	default: // AggAvg; rebucketPoints answers AggLast itself
		if b.count == 0 {
			return 0
		}
		return b.sum / float64(b.count)
	}
}

// Handler serves the /query endpoint:
//
//	/query                                  list series names
//	/query?series=K&from=T&to=T&step=D&agg=A  evaluate one series
//
// from/to accept RFC3339 or integer unix seconds; step accepts a Go
// duration (default 10s); agg one of avg|min|max|sum|count|last, where last
// needs a raw step below 10s (400 otherwise: a rollup keeps no last value,
// and its average would pass for one). Omitted
// to defaults to the series' newest timestamp; omitted from defaults to
// to−5m. The handler never reads the wall clock, so responses are
// deterministic under the virtual clock.
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
		qr.Step = Tier10s
		if v := q.Get("step"); v != "" {
			if qr.Step, err = time.ParseDuration(v); err != nil || qr.Step <= 0 {
				http.Error(w, "bad step parameter: "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
		}
		if qr.Agg == AggLast && qr.Step >= Tier10s {
			http.Error(w, "agg=last needs a raw step below 10s (e.g. step=1s): rollup buckets keep no last value", http.StatusBadRequest)
			return
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
