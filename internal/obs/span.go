package obs

import (
	"sync"
	"time"
)

// Span is one named stage of a trace, with caller-supplied start and end
// times. obs never reads the wall clock: every timestamp comes from the
// component's injected clock.Clock, so virtual-clock tests can assert
// exact stage latencies.
type Span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Duration is the span length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Trace is one recorded pipeline execution (e.g. a controller step's
// detect→plan→act). Build it from a single goroutine — Join is not
// synchronized — then Finish or FinishRound commits it to the tracer's
// ring buffer and it must not be mutated further. A nil *Trace (what a nil
// *Tracer starts) is a valid no-op receiver.
type Trace struct {
	Seq   uint64    `json:"seq"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Spans []Span    `json:"spans"`
	// Note carries a short free-form annotation ("overdraw enforced=3").
	Note string `json:"note,omitempty"`
	// Episode is the flight-recorder episode ID of the overdraw episode
	// this trace belongs to (0 when none) — the join key between a trace
	// and the recorded events (flexreplay -episode <id> prints them).
	Episode uint64 `json:"episode,omitempty"`
	// Root is the flight-recorder sequence of the event that rooted this
	// trace (for controller steps, the detect event; 0 when unrecorded).
	Root uint64 `json:"root,omitempty"`

	tracer *Tracer
}

// Join tags the trace with its flight-recorder episode ID and the sequence
// of its rooting event (the detect event for controller steps).
func (t *Trace) Join(episode, root uint64) {
	if t != nil {
		t.Episode, t.Root = episode, root
	}
}

// ID is the trace's sequence number (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.Seq
}

// FinishRound is Finish for a controller round: one span per stage b
// bounds, the note, and the round's last instant as the end time.
func (t *Trace) FinishRound(b *StageBounds, note string) {
	if t == nil {
		return
	}
	for st := Stage(0); st < NumStages; st++ {
		if sp, ok := b.Span(st); ok {
			t.Spans = append(t.Spans, sp)
		}
	}
	t.Note = note
	t.Finish(b.End())
}

// Finish stamps the end time and commits the trace to its tracer's ring
// buffer, evicting the oldest entry when full.
func (t *Trace) Finish(at time.Time) {
	t.End = at
	tr := t.tracer
	if tr == nil {
		return
	}
	t.tracer = nil
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.ring) < tr.capacity {
		tr.ring = append(tr.ring, t)
		return
	}
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % tr.capacity
}

// Tracer keeps a fixed-size ring buffer of recently finished traces, which
// the fleet stitches into per-episode waterfalls. All methods are safe for concurrent
// use; individual traces are built single-goroutine (see Trace).
type Tracer struct {
	capacity int

	mu   sync.Mutex
	ring []*Trace
	next int
	seq  uint64
}

// NewTracer returns a tracer retaining the last capacity finished traces
// (default 256 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{capacity: capacity}
}

// Start begins a trace at the caller-supplied time. A nil tracer starts
// the nil trace.
func (tr *Tracer) Start(name string, at time.Time) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.seq++
	seq := tr.seq
	tr.mu.Unlock()
	return &Trace{Seq: seq, Name: name, Start: at, tracer: tr}
}

// Recent returns copies of the retained traces, newest first.
func (tr *Tracer) Recent() []Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Trace, 0, len(tr.ring))
	for i := len(tr.ring) - 1; i >= 0; i-- {
		t := tr.ring[(tr.next+i)%len(tr.ring)]
		c := *t
		c.Spans = append([]Span(nil), t.Spans...)
		out = append(out, c)
	}
	return out
}
