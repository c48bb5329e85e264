// Package tsdb is an embedded time-series store for the Flex control
// plane: fixed-capacity rings of raw samples per series, tiered
// downsampling into 10s and 1m rollups of min/max/sum/count, and a small
// query surface (/query) for dashboards.
//
// The design mirrors the obs registry's discipline:
//
//   - Append is allocation-free (//flex:hotpath): every ring and rollup
//     buffer is sized at series creation, and folding a sample into the
//     open rollup bucket of each tier touches only plain struct fields
//     under one short mutex hold.
//   - Time never comes from the wall clock. Samples carry caller-supplied
//     timestamps from the injected clock.Clock, so virtual-clock runs
//     produce deterministic, replayable series.
//   - Series are keyed with the expvar convention the registry's
//     /debug/vars surface already uses — `name;label=value;label2=value2`
//     — so a scraped registry metric and its stored series share a name.
//
// Retention is capacity-based, not time-based: the raw ring holds the
// last RawCapacity points, each rollup tier the last TierCapacity
// buckets. With the defaults (1024 raw, 720×10s, 1440×1m) a 500ms
// sampler keeps ~8.5 minutes raw, 2 hours at 10s, and a day at 1m.
package tsdb

import (
	"sort"
	"sync"
	"time"
)

// Rollup tier widths. Tier 0 folds raw samples into 10-second buckets —
// matching the paper's 10s battery budget so "did the budget window look
// healthy" is answerable from one bucket — and tier 1 into 1-minute
// buckets for long-horizon views.
const (
	Tier10s = 10 * time.Second
	Tier1m  = time.Minute

	numTiers = 2
)

// Defaults used when Options fields are zero.
const (
	DefaultRawCapacity  = 1024
	DefaultTier10sCount = 720  // 2h at 10s
	DefaultTier1mCount  = 1440 // 24h at 1m
)

// Point is one raw observation.
type Point struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// Bucket is one sealed (or in-progress) rollup interval
// [Start, Start+width).
type Bucket struct {
	Start time.Time `json:"start"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Sum   float64   `json:"sum"`
	Count uint64    `json:"count"`
}

// Avg returns the bucket mean (0 when empty).
func (b Bucket) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// bucket is the internal fixed-size rollup cell. Times are int64
// UnixNanos so the hot path compares and assigns machine words only.
type bucket struct {
	start int64 // UnixNano of the interval start; startUnset when empty
	min   float64
	max   float64
	sum   float64
	count uint64
}

const startUnset = int64(-1 << 62)

// tier is one downsampling level: a ring of sealed buckets plus the open
// bucket samples are folding into.
type tier struct {
	width int64 // interval width in nanoseconds
	ring  []bucket
	n     int // live sealed buckets
	next  int // ring slot the next sealed bucket lands in
	cur   bucket
}

// Options sizes a store's series. The zero value selects the defaults.
type Options struct {
	// RawCapacity is the number of raw points each series retains.
	RawCapacity int
	// TierCapacity is the number of rollup buckets retained per tier,
	// indexed [10s, 1m]. Zero entries select the defaults.
	TierCapacity [numTiers]int
}

func (o Options) withDefaults() Options {
	if o.RawCapacity <= 0 {
		o.RawCapacity = DefaultRawCapacity
	}
	if o.TierCapacity[0] <= 0 {
		o.TierCapacity[0] = DefaultTier10sCount
	}
	if o.TierCapacity[1] <= 0 {
		o.TierCapacity[1] = DefaultTier1mCount
	}
	return o
}

// Series is one named time series: a raw ring plus the rollup tiers.
// Append is safe for concurrent use; a Series is normally obtained once
// at wiring time via Store.Series and retained, like a registry metric.
type Series struct {
	name string

	mu   sync.Mutex
	raw  []Point
	n    int // live raw points
	next int // ring slot the next point lands in
	tier [numTiers]tier
}

func newSeries(name string, o Options) *Series {
	s := &Series{name: name, raw: make([]Point, o.RawCapacity)}
	widths := [numTiers]time.Duration{Tier10s, Tier1m}
	for i := range s.tier {
		s.tier[i] = tier{
			width: int64(widths[i]),
			ring:  make([]bucket, o.TierCapacity[i]),
			cur:   bucket{start: startUnset},
		}
	}
	return s
}

// Name returns the series key (`name;label=value` form).
func (s *Series) Name() string { return s.name }

// Append records v at t. Out-of-order points (t before the newest point)
// are accepted into the raw ring but fold into rollups only when they
// still land in the open bucket; a point behind the open bucket of a
// tier is counted in that tier's open bucket rather than re-opening a
// sealed one — monotone feeds (the sampler) never hit this.
//
// The hot path allocates nothing: ring slots are pre-sized, bucket
// sealing copies fixed-size structs, and time arithmetic is on int64
// UnixNanos.
//
//flex:hotpath
func (s *Series) Append(t time.Time, v float64) {
	tn := t.UnixNano()
	s.mu.Lock()
	s.raw[s.next] = Point{Time: t, Value: v}
	s.next++
	if s.next == len(s.raw) {
		s.next = 0
	}
	if s.n < len(s.raw) {
		s.n++
	}
	for i := range s.tier {
		s.tier[i].fold(tn, v)
	}
	s.mu.Unlock()
}

// fold accumulates v into the tier's open bucket, sealing completed
// buckets as time crosses interval boundaries.
func (ti *tier) fold(tn int64, v float64) {
	start := tn - mod(tn, ti.width)
	if ti.cur.start == startUnset {
		ti.cur = bucket{start: start, min: v, max: v, sum: v, count: 1}
		return
	}
	if start > ti.cur.start {
		// The sample belongs to a later interval: seal the open bucket
		// into the ring and start fresh. Gaps (idle intervals) produce no
		// empty buckets — absence of a bucket means absence of data.
		ti.ring[ti.next] = ti.cur
		ti.next++
		if ti.next == len(ti.ring) {
			ti.next = 0
		}
		if ti.n < len(ti.ring) {
			ti.n++
		}
		ti.cur = bucket{start: start, min: v, max: v, sum: v, count: 1}
		return
	}
	// In (or behind) the open interval: accumulate.
	if v < ti.cur.min {
		ti.cur.min = v
	}
	if v > ti.cur.max {
		ti.cur.max = v
	}
	ti.cur.sum += v
	ti.cur.count++
}

// mod is Euclidean remainder, so pre-epoch timestamps still align buckets
// on [k·width, (k+1)·width) boundaries.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// at is the k-th oldest retained raw point, k in [0, s.n). Caller holds
// s.mu.
func (s *Series) at(k int) *Point {
	i := s.next - s.n + k
	if i < 0 {
		i += len(s.raw)
	}
	return &s.raw[i]
}

// Raw returns a copy of the retained raw points in append order.
func (s *Series) Raw() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, s.n)
	for k := range out {
		out[k] = *s.at(k)
	}
	return out
}

// Buckets returns a copy of the retained rollup buckets for the tier of
// the given width (Tier10s or Tier1m), oldest first, including the open
// partially-filled bucket as the final entry. Unknown widths return nil.
func (s *Series) Buckets(width time.Duration) []Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.tier {
		if s.tier[i].width == int64(width) {
			return s.tier[i].snapshot()
		}
	}
	return nil
}

// at is the k-th oldest sealed bucket, k in [0, ti.n). Buckets seal in
// start order, so at(k).start rises with k.
func (ti *tier) at(k int) *bucket {
	i := ti.next - ti.n + k
	if i < 0 {
		i += len(ti.ring)
	}
	return &ti.ring[i]
}

func (ti *tier) snapshot() []Bucket {
	open := 0
	if ti.cur.start != startUnset {
		open = 1
	}
	out := make([]Bucket, 0, ti.n+open)
	for k := 0; k < ti.n; k++ {
		out = append(out, ti.at(k).export())
	}
	if open == 1 {
		out = append(out, ti.cur.export())
	}
	return out
}

func (b bucket) export() Bucket {
	return Bucket{
		Start: time.Unix(0, b.start),
		Min:   b.min,
		Max:   b.max,
		Sum:   b.sum,
		Count: b.count,
	}
}

// Last returns the newest appended point and ok=false when empty.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Point{}, false
	}
	return *s.at(s.n - 1), true
}

// Store holds the named series. Series creation is a cold-path
// get-or-create (like registry metric registration); hot paths retain the
// returned *Series.
type Store struct {
	opts Options

	mu     sync.Mutex
	series []*Series
	byName map[string]*Series
}

// NewStore returns an empty store sized by o (zero value = defaults).
func NewStore(o Options) *Store {
	return &Store{opts: o.withDefaults(), byName: make(map[string]*Series)}
}

// Series returns the series with the given key, creating it on first
// use. Keys follow the expvar convention: `name;label=value`, labels in
// a fixed order chosen by the caller.
func (st *Store) Series(name string) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.byName[name]; ok {
		return s
	}
	s := newSeries(name, st.opts)
	st.series = append(st.series, s)
	st.byName[name] = s
	return s
}

// Lookup returns the series if it exists, without creating it.
func (st *Store) Lookup(name string) (*Series, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.byName[name]
	return s, ok
}

// Names returns the registered series keys, sorted.
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.series))
	for _, s := range st.series {
		out = append(out, s.name)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered series.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

// SeriesKey renders the canonical `name;label=value` series key for a
// metric name and ordered label pairs. Cold path (wiring time).
func SeriesKey(name string, labels ...[2]string) string {
	key := name
	for _, l := range labels {
		key += ";" + l[0] + "=" + l[1]
	}
	return key
}
