// Package tsdb is an embedded time-series store for the Flex control
// plane: one fixed-capacity ring of raw samples per series, written by the
// registry sampler and the safety auditor.
//
// The design mirrors the obs registry's discipline:
//
//   - Append is allocation-free (//flex:hotpath): every ring is sized at
//     series creation, and a sample is one 16-byte slot.
//   - Time never comes from the wall clock. Samples carry caller-supplied
//     timestamps from the injected clock.Clock, so virtual-clock runs
//     produce deterministic, replayable series.
//   - Series are keyed with the expvar convention —
//     `name;label=value;label2=value2` — so a scraped registry metric and
//     its stored series share a name.
//
// Retention is capacity-based, not time-based: a series holds its last
// RawCapacity points. With the default 4096, a 500ms sampler keeps 34
// minutes — a whole default 24-minute episode.
package tsdb

import "time"

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

// Series is one named time series: a ring of its newest points. It has its
// Store's owner; a Series is normally obtained once at wiring time via
// Store.Series and retained, like a registry metric.
type Series struct {
	ring []slot
	n    int // live points
	next int // ring slot the next point lands in
}

// Append records v at t. Every writer stamps points from a clock that only
// advances — the sampler, the auditor and sim's snapshots — so Raw returns
// them in time order.
//
// The hot path allocates nothing: the ring is pre-sized and a point is one
// fixed-size slot.
//
//flex:hotpath
func (s *Series) Append(t time.Time, v float64) {
	s.ring[s.next] = slot{at: t.UnixNano(), v: v}
	if s.next++; s.next == len(s.ring) {
		s.next = 0
	}
	if s.n < len(s.ring) {
		s.n++
	}
}

// at is the k-th oldest retained point, k in [0, s.n).
func (s *Series) at(k int) slot {
	i := s.next - s.n + k
	if i < 0 {
		i += len(s.ring)
	}
	return s.ring[i]
}

// Raw returns a copy of the retained points in append order.
//
//flex:keep tests in tsdb, emu and sim read a series' points whole
func (s *Series) Raw() []Point {
	out := make([]Point, s.n)
	for k := range out {
		out[k] = s.at(k).point()
	}
	return out
}

// Store holds the named series. Series creation is a cold-path
// get-or-create (like registry metric registration); hot paths retain the
// returned *Series. Its owner is the goroutine that steps the room: the
// sampler and the auditor that write it tick there, and readers read
// between ticks.
type Store struct {
	capacity int
	byName   map[string]*Series
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
	if s, ok := st.byName[name]; ok {
		return s
	}
	s := &Series{ring: make([]slot, st.capacity)}
	st.byName[name] = s
	return s
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
