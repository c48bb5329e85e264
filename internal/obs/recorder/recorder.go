package recorder

import (
	"sync"
	"sync/atomic"
)

// DefaultCapacity is the ring size used when New is given capacity <= 0.
const DefaultCapacity = 8192

// Recorder is the flight recorder: a fixed-capacity ring of events that
// is always on, plus an optional JSONL sink for persistence. Emit is safe
// for concurrent use and allocation-free when no sink is attached;
// Snapshot allocates freely.
//
// The ring is bounded: under burst load the oldest events are overwritten
// (Overwritten counts them). Attach a sink before the run when the full
// log matters — replay needs every event, an in-process check of a run
// only the recent window.
type Recorder struct {
	mu   sync.Mutex
	ring []Event
	// n is the number of live events in the ring; next is the slot the
	// next event lands in once the ring has wrapped.
	n, next int
	seq     uint64
	sink    *Sink

	episodes    atomic.Uint64
	overwritten atomic.Uint64
	emitted     atomic.Uint64
}

// New returns a recorder retaining the last capacity events
// (DefaultCapacity when capacity <= 0). The ring is allocated up front so
// the emission path never grows it.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, capacity)}
}

// Emit assigns the event its sequence number, appends it to the ring
// (overwriting the oldest event when full) and forwards it to the sink if
// one is attached. It returns the assigned sequence number so callers can
// thread it as the Cause of downstream events. Emit on a nil recorder
// returns 0, so call sites need no nil guards beyond `rec != nil` when
// they want to skip building the event at all.
//
//flex:hotpath
func (r *Recorder) Emit(e Event) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	} else {
		r.overwritten.Add(1)
	}
	sink := r.sink
	if sink != nil {
		// Writing under r.mu keeps the file in Seq order across
		// concurrent emitters; the sink write is buffered memory I/O
		// (bufio), not a syscall per event. A failed write latches in the
		// sink, which DetachSink returns; the ring keeps recording.
		_ = sink.write(e)
	}
	r.mu.Unlock()
	r.emitted.Add(1)
	return e.Seq
}

// NextEpisode allocates a fresh episode ID (1-based). Controllers call it
// when they open an overdraw episode; IDs are unique per recorder, so
// multi-primary controllers sharing a recorder never collide.
func (r *Recorder) NextEpisode() uint64 {
	if r == nil {
		return 0
	}
	return r.episodes.Add(1)
}

// AttachSink directs every subsequent event to s as length-prefixed
// JSONL. Attach before emission begins when the full log matters — events
// emitted earlier are only in the ring. The first write error stays
// attached with the sink, which writes nothing more; DetachSink returns
// it. The ring keeps recording.
func (r *Recorder) AttachSink(s *Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// DetachSink flushes, closes and detaches the current sink, returning its
// first error (write, flush or close), if any.
func (r *Recorder) DetachSink() error {
	r.mu.Lock()
	s := r.sink
	r.sink = nil
	r.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.Close()
}

// Emitted reports the total number of events emitted.
func (r *Recorder) Emitted() uint64 { return r.emitted.Load() }

// Overwritten reports how many events the ring has evicted — the
// backpressure signal that the window was too small for the burst.
func (r *Recorder) Overwritten() uint64 { return r.overwritten.Load() }

// Episodes reports how many episode IDs have been allocated.
func (r *Recorder) Episodes() uint64 { return r.episodes.Load() }

// Filter selects events for ApplyFilter. Zero values are wildcards.
type Filter struct {
	// Episode keeps events of one overdraw episode.
	Episode uint64
	// WithCauses additionally includes the transitive causal ancestors of
	// every match — still present in the events filtered — so an episode
	// filter returns the full chain from the triggering telemetry sample
	// to the final action ack, even though samples carry no episode ID.
	WithCauses bool
}

// Snapshot returns a copy of the retained events in sequence order.
func (r *Recorder) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(start+i)%len(r.ring)]
	}
	return out
}

// ApplyFilter filters a sequence-ordered event slice (the ring snapshot
// or a loaded JSONL log), keeping the order.
func ApplyFilter(events []Event, f Filter) []Event {
	keep := make([]bool, len(events))
	any := false
	for i := range events {
		if f.Episode == 0 || events[i].Episode == f.Episode {
			keep[i] = true
			any = true
		}
	}
	if any && f.WithCauses {
		// Events are in Seq order and causes always precede effects, so a
		// single reverse sweep closes the ancestor set.
		bySeq := make(map[uint64]int, len(events))
		for i := range events {
			bySeq[events[i].Seq] = i
		}
		for i := len(events) - 1; i >= 0; i-- {
			if !keep[i] || events[i].Cause == 0 {
				continue
			}
			if j, ok := bySeq[events[i].Cause]; ok {
				keep[j] = true
			}
		}
	}
	out := make([]Event, 0, len(events))
	for i := range events {
		if keep[i] {
			out = append(out, events[i])
		}
	}
	return out
}
