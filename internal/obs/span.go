package obs

import (
	"encoding/json"
	"io"
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
	// this trace belongs to (0 when none) — the join key between /traces
	// entries and /events streams (query the latter with ?episode=<id>).
	Episode uint64 `json:"episode,omitempty"`
	// Root is the flight-recorder sequence of the event that rooted this
	// trace (for controller steps, the detect event; 0 when unrecorded) —
	// resolve it with /events?since=<Root> to land on the causal chain.
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

// Duration is the whole-trace length.
func (t *Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// Tracer keeps a fixed-size ring buffer of recently finished traces for
// the /traces introspection endpoint. All methods are safe for concurrent
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

// traceJSON is the /traces wire format: durations are folded in so the
// output is readable without computing time differences by hand.
type traceJSON struct {
	Seq             uint64     `json:"seq"`
	Name            string     `json:"name"`
	Start           time.Time  `json:"start"`
	DurationSeconds float64    `json:"duration_seconds"`
	Note            string     `json:"note,omitempty"`
	Episode         uint64     `json:"episode,omitempty"`
	Root            uint64     `json:"root,omitempty"`
	Spans           []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name            string  `json:"name"`
	OffsetSeconds   float64 `json:"offset_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// TraceFilter selects traces for the /traces surface. Zero values are
// wildcards, mirroring recorder.Filter: watch loops poll incrementally
// with since=<seq> or from=<time> instead of refetching the full ring.
type TraceFilter struct {
	// MinSeq keeps traces with Seq >= MinSeq.
	MinSeq uint64
	// From keeps traces whose Start is at or after From.
	From time.Time
	// Episode keeps traces of one overdraw episode.
	Episode uint64
	// Limit keeps only the newest Limit traces after filtering (0 = all).
	Limit int
}

func (f *TraceFilter) match(t *Trace) bool {
	if f.MinSeq != 0 && t.Seq < f.MinSeq {
		return false
	}
	if !f.From.IsZero() && t.Start.Before(f.From) {
		return false
	}
	if f.Episode != 0 && t.Episode != f.Episode {
		return false
	}
	return true
}

// RecentFiltered returns copies of the retained traces matching f,
// newest first.
func (tr *Tracer) RecentFiltered(f TraceFilter) []Trace {
	all := tr.Recent()
	out := make([]Trace, 0, len(all))
	for i := range all {
		if f.match(&all[i]) {
			out = append(out, all[i])
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit] // newest first: keep the head
	}
	return out
}

// WriteJSONFiltered renders the traces matching f (newest first).
func (tr *Tracer) WriteJSONFiltered(w io.Writer, f TraceFilter) error {
	recent := tr.RecentFiltered(f)
	out := make([]traceJSON, len(recent))
	for i, t := range recent {
		tj := traceJSON{
			Seq:             t.Seq,
			Name:            t.Name,
			Start:           t.Start,
			DurationSeconds: t.Duration().Seconds(),
			Note:            t.Note,
			Episode:         t.Episode,
			Root:            t.Root,
			Spans:           make([]spanJSON, len(t.Spans)),
		}
		for j, s := range t.Spans {
			tj.Spans[j] = spanJSON{
				Name:            s.Name,
				OffsetSeconds:   s.Start.Sub(t.Start).Seconds(),
				DurationSeconds: s.Duration().Seconds(),
			}
		}
		out[i] = tj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
