package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
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
// without data are omitted (no NaN filling).
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
	flush := func() {
		if cur.start != startUnset && cur.count > 0 {
			out = append(out, Point{Time: time.Unix(0, cur.start), Value: aggValue(cur, r.Agg)})
		}
	}
	var lastV float64
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
		if r.Agg == AggLast {
			cur.sum = lastV * float64(cur.count) // keep aggValue simple
		}
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
	default: // AggAvg, AggLast (last is exact for raw, avg-approximated for rollups)
		if b.count == 0 {
			return 0
		}
		return b.sum / float64(b.count)
	}
}

// Quantile estimates the q-quantile (0..1) of the series over [from, to].
// When the raw ring still covers the window it is exact (nearest-rank
// over the sorted raw values); otherwise it interpolates over the 10s
// rollup, spreading each bucket's count uniformly across [min, max] —
// including the open, partially-filled bucket. Returns ok=false when the
// window holds no data.
func (s *Series) Quantile(from, to time.Time, q float64) (v float64, ok bool) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	raw := s.Raw()
	if len(raw) > 0 && !raw[0].Time.After(from) {
		vals := make([]float64, 0, len(raw))
		for _, p := range raw {
			if p.Time.Before(from) || p.Time.After(to) {
				continue
			}
			vals = append(vals, p.Value)
		}
		if len(vals) == 0 {
			return 0, false
		}
		sort.Float64s(vals)
		rank := q * float64(len(vals)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		frac := rank - float64(lo)
		return vals[lo] + frac*(vals[hi]-vals[lo]), true
	}
	var bks []Bucket
	for _, b := range s.Buckets(Tier10s) {
		if b.Start.Before(from) || b.Start.After(to) || b.Count == 0 {
			continue
		}
		bks = append(bks, b)
	}
	if len(bks) == 0 {
		return 0, false
	}
	// Each bucket contributes Count observations spread uniformly on
	// [Min, Max]; walk the buckets in value order and interpolate within
	// the one containing the target rank.
	sort.Slice(bks, func(i, j int) bool { return bks[i].Min < bks[j].Min })
	var total uint64
	for _, b := range bks {
		total += b.Count
	}
	rank := q * float64(total)
	var cum float64
	for _, b := range bks {
		next := cum + float64(b.Count)
		if next >= rank {
			if b.Count == 0 || b.Max <= b.Min {
				return b.Min, true
			}
			frac := (rank - cum) / float64(b.Count)
			return b.Min + frac*(b.Max-b.Min), true
		}
		cum = next
	}
	return bks[len(bks)-1].Max, true
}

// Handler serves the /query endpoint:
//
//	/query                                  list series names
//	/query?series=K&from=T&to=T&step=D&agg=A  evaluate one series
//
// from/to accept RFC3339 or integer unix seconds; step accepts a Go
// duration (default 10s); agg one of avg|min|max|sum|count|last. Omitted
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
