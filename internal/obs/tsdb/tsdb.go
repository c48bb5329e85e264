// Package tsdb is an embedded time-series store for the Flex control
// plane: one fixed-capacity ring of raw samples per series, and a small
// query surface (/query) that re-buckets a ring at any step.
//
// The design mirrors the obs registry's discipline:
//
//   - Append is allocation-free (//flex:hotpath): every ring is sized at
//     series creation, and a sample is one 16-byte slot written under one
//     short mutex hold.
//   - Time never comes from the wall clock. Samples carry caller-supplied
//     timestamps from the injected clock.Clock, so virtual-clock runs
//     produce deterministic, replayable series.
//   - Series are keyed with the expvar convention the registry's
//     /debug/vars surface already uses — `name;label=value;label2=value2`
//     — so a scraped registry metric and its stored series share a name.
//
// Retention is capacity-based, not time-based: a series holds its last
// RawCapacity points. With the default 4096, a 500ms sampler keeps 34
// minutes — a whole default 24-minute episode.
package tsdb

import (
	"sort"
	"sync"
	"time"
)

// DefaultRawCapacity is the number of points a series retains when
// Options.RawCapacity is zero.
const DefaultRawCapacity = 4096

// Point is one raw observation.
type Point struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// slot is one stored point. The time is a UnixNano, so a slot is 16 bytes
// where a Point is 32; reads convert.
type slot struct {
	at int64
	v  float64
}

func (p slot) point() Point { return Point{Time: time.Unix(0, p.at).UTC(), Value: p.v} }

// Options sizes a store's series. The zero value selects the defaults.
type Options struct {
	// RawCapacity is the number of points each series retains.
	RawCapacity int
}

// Series is one named time series: a ring of its newest points. Append is
// safe for concurrent use; a Series is normally obtained once at wiring
// time via Store.Series and retained, like a registry metric.
type Series struct {
	mu   sync.Mutex
	ring []slot
	n    int // live points
	next int // ring slot the next point lands in
}

// Append records v at t. t must not be before the newest point's time —
// Query's step intervals rely on it — and every writer meets that: the
// sampler, the auditor and sim's snapshots stamp points from clocks that
// only advance.
//
// The hot path allocates nothing: the ring is pre-sized and a point is one
// fixed-size slot.
//
//flex:hotpath
func (s *Series) Append(t time.Time, v float64) {
	at := t.UnixNano()
	s.mu.Lock()
	s.ring[s.next] = slot{at: at, v: v}
	if s.next++; s.next == len(s.ring) {
		s.next = 0
	}
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// at is the k-th oldest retained point, k in [0, s.n). Caller holds s.mu.
func (s *Series) at(k int) slot {
	i := s.next - s.n + k
	if i < 0 {
		i += len(s.ring)
	}
	return s.ring[i]
}

// Raw returns a copy of the retained points in append order.
func (s *Series) Raw() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, s.n)
	for k := range out {
		out[k] = s.at(k).point()
	}
	return out
}

// Last returns the newest appended point and ok=false when empty.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1).point(), true
}

// Store holds the named series. Series creation is a cold-path
// get-or-create (like registry metric registration); hot paths retain the
// returned *Series.
type Store struct {
	capacity int

	mu     sync.Mutex
	byName map[string]*Series
}

// NewStore returns an empty store sized by o (zero value = defaults).
func NewStore(o Options) *Store {
	if o.RawCapacity <= 0 {
		o.RawCapacity = DefaultRawCapacity
	}
	return &Store{capacity: o.RawCapacity, byName: make(map[string]*Series)}
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
	s := &Series{ring: make([]slot, st.capacity)}
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
	out := make([]string, 0, len(st.byName))
	for name := range st.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
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
