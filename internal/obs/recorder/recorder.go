package recorder

import "time"

// DefaultCapacity is the ring size used when New is given capacity <= 0.
const DefaultCapacity = 8192

// namesPresized is how many names New makes the name table for: the
// 24-minute Figure 13 emulation interns 291, so an emulation run never
// grows it.
const namesPresized = 384

// Recorder is the flight recorder: a fixed-capacity ring of events that
// is always on, plus an optional JSONL sink for persistence. Its owner is
// the goroutine that steps the room it records, which emits every event
// in sequence order. Emit is allocation-free when no sink is attached and
// its strings are in the name table; Snapshot allocates freely.
//
// The ring is bounded: under burst load the oldest events are overwritten
// (Overwritten counts them). Attach a sink before the run when the full
// log matters — replay needs every event, an in-process check of a run
// only the recent window.
//
// The ring holds records, not Events: a record keeps no pointers, its
// strings are indexes into the recorder's name table and its time an
// offset into its location table, and Snapshot rebuilds each Event from
// them.
type Recorder struct {
	ring []record
	// seq is the last assigned sequence number, the number of events
	// emitted; event s sits in slot (s-1) mod len(ring), and next is the
	// slot of event seq+1.
	seq  uint64
	next int
	sink *Sink
	tab  tables

	episodes uint64
}

// tables are the name and location tables a recorder's records index.
type tables struct {
	// names is the name table: every distinct Actor, Subject and Detail
	// emitted, in first-seen order, names[0] being "". index inverts it
	// but for "".
	names []string
	index map[string]Name
	// zones is the location table (see zone); zones[0] is UTC.
	zones []zone
}

// record is what the ring stores of an Event: 64 bytes and no pointers, so
// the ring is half an Event ring's size and the GC never scans it. Seq is
// the record's position in the ring.
type record struct {
	cause, episode uint64
	// ns is Time as nanoseconds after its zone's base second.
	ns           int64
	value, score float64
	aux          int64
	actor        Name
	subject      Name
	detail       Name
	typ          Type
	zone         uint8
}

// zone is one entry of a recorder's location table: a time.Location and
// the Unix second the nanoseconds of its records count from. The base is
// 0 for every instant within 2^33 s (272 years) of 1970, where the offset
// is UnixNano; further instants, the zero Time among them, count from the
// start of their 2^32-second era.
type zone struct {
	loc  *time.Location
	base int64
}

// Name is a string interned in one recorder's name table (Intern). It
// means nothing to another recorder.
type Name uint32

// Entry is one event of an EmitBatch call: the fields that vary across a
// batch whose events share their Type and Actor, with the Subject
// interned. Episode, Score, Aux and Detail are zero.
type Entry struct {
	Time    time.Time
	Subject Name
	Value   float64
	Cause   uint64
}

// New returns a recorder retaining the last capacity events
// (DefaultCapacity when capacity <= 0). The ring is allocated up front so
// the emission path never grows it, and the name table is made for
// namesPresized strings.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring: make([]record, capacity),
		tab: tables{
			names: make([]string, 1, namesPresized),
			index: make(map[string]Name, namesPresized),
			zones: []zone{{loc: time.UTC}},
		},
	}
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
	r.seq++
	e.Seq = r.seq
	ns, z := r.tab.stamp(e.Time)
	r.ring[r.next] = record{
		cause: e.Cause, episode: e.Episode, ns: ns,
		value: e.Value, score: e.Score, aux: e.Aux,
		actor: r.tab.intern(e.Actor), subject: r.tab.intern(e.Subject), detail: r.tab.intern(e.Detail),
		typ: e.Type, zone: z,
	}
	if r.next++; r.next == len(r.ring) {
		r.next = 0
	}
	if r.sink != nil {
		// The sink write is buffered memory I/O (bufio), not a syscall
		// per event. A failed write latches in the sink, which DetachSink
		// returns; the ring keeps recording.
		_ = r.sink.write(e)
	}
	return e.Seq
}

// EmitBatch emits one event of type t by actor for each entry, in order:
// the events take consecutive sequence numbers, and the first is returned
// (entry k's is that plus k). A batch is what a loop of Emit records.
// EmitBatch on a nil recorder, or of an empty batch, returns 0.
//
//flex:hotpath
func (r *Recorder) EmitBatch(t Type, actor Name, batch []Entry) uint64 {
	if r == nil || len(batch) == 0 {
		return 0
	}
	first := r.seq + 1
	for k := range batch {
		e := &batch[k]
		ns, z := r.tab.stamp(e.Time)
		r.ring[r.next] = record{cause: e.Cause, ns: ns, value: e.Value, actor: actor, subject: e.Subject, typ: t, zone: z}
		if r.next++; r.next == len(r.ring) {
			r.next = 0
		}
		if r.sink != nil {
			_ = r.sink.write(Event{Seq: first + uint64(k), Cause: e.Cause, Time: e.Time, Type: t, Actor: r.tab.names[actor], Subject: r.tab.names[e.Subject], Value: e.Value})
		}
	}
	r.seq += uint64(len(batch))
	return first
}

// Intern returns s's Name in r's name table, adding s on first sight. A
// caller that emits the same string over and over interns it once and
// hands the Name to EmitBatch. Intern on a nil recorder returns 0.
//
//flex:hotpath
func (r *Recorder) Intern(s string) Name {
	if r == nil {
		return 0
	}
	return r.tab.intern(s)
}

// intern returns s's Name in the name table, adding s on first sight.
func (t *tables) intern(s string) Name {
	if s == "" {
		return 0
	}
	if n, ok := t.index[s]; ok {
		return n
	}
	return t.addName(s)
}

// addName is intern's miss: s joins the name table for the recorder's
// life. The table grows past its presized length only for a recorder fed
// more distinct strings than an emulation run emits.
//
//flex:coldpath
func (t *tables) addName(s string) Name {
	n := Name(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = n
	return n
}

// stamp returns at as a record keeps it: nanoseconds after the base of its
// zone, and the zone's index.
func (t *tables) stamp(at time.Time) (int64, uint8) {
	sec, base := at.Unix(), int64(0)
	if sec < -1<<33 || sec >= 1<<33 {
		base = sec &^ (1<<32 - 1)
	}
	loc := at.Location()
	ns := (sec-base)*1e9 + int64(at.Nanosecond())
	for i := range t.zones {
		if z := &t.zones[i]; z.loc == loc && z.base == base {
			return ns, uint8(i)
		}
	}
	return ns, t.addZone(loc, base)
}

// addZone is stamp's miss. A recorder holds up to 256 zones; an instant
// past that, which would take a 257th location or era, panics.
//
//flex:coldpath
func (t *tables) addZone(loc *time.Location, base int64) uint8 {
	if len(t.zones) == 256 {
		panic("recorder: more than 256 distinct locations and eras")
	}
	t.zones = append(t.zones, zone{loc: loc, base: base})
	return uint8(len(t.zones) - 1)
}

// event rebuilds the Event with sequence number seq from its record.
func (t *tables) event(seq uint64, rec *record) Event {
	z := &t.zones[rec.zone]
	return Event{
		Seq: seq, Cause: rec.cause, Episode: rec.episode,
		Time: time.Unix(z.base, rec.ns).In(z.loc), Type: rec.typ,
		Actor: t.names[rec.actor], Subject: t.names[rec.subject],
		Value: rec.value, Score: rec.score, Aux: rec.aux, Detail: t.names[rec.detail],
	}
}

// NextEpisode allocates a fresh episode ID (1-based). Controllers call it
// when they open an overdraw episode; IDs are unique per recorder, so
// multi-primary controllers sharing a recorder never collide.
func (r *Recorder) NextEpisode() uint64 {
	if r == nil {
		return 0
	}
	r.episodes++
	return r.episodes
}

// AttachSink directs every subsequent event to s as length-prefixed
// JSONL. Attach before emission begins when the full log matters — events
// emitted earlier are only in the ring. The first write error stays
// attached with the sink, which writes nothing more; DetachSink returns
// it. The ring keeps recording.
func (r *Recorder) AttachSink(s *Sink) { r.sink = s }

// DetachSink flushes, closes and detaches the current sink, returning its
// first error (write, flush or close), if any.
func (r *Recorder) DetachSink() error {
	s := r.sink
	r.sink = nil
	if s == nil {
		return nil
	}
	return s.Close()
}

// Emitted reports the total number of events emitted.
func (r *Recorder) Emitted() uint64 { return r.seq }

// Overwritten reports how many events the ring has evicted — the
// backpressure signal that the window was too small for the burst.
func (r *Recorder) Overwritten() uint64 {
	return r.seq - min(r.seq, uint64(len(r.ring)))
}

// Episodes reports how many episode IDs have been allocated.
func (r *Recorder) Episodes() uint64 { return r.episodes }

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

// Snapshot returns the retained events in sequence order, rebuilt from
// the ring. Each equals the Event emitted, but for its Time's monotonic
// clock reading, which the ring does not keep: the instant and location
// are the same, and so is the event's JSON.
func (r *Recorder) Snapshot() []Event {
	n := min(r.seq, uint64(len(r.ring)))
	out := make([]Event, n)
	first := r.seq - n + 1
	for i := range out {
		seq := first + uint64(i)
		out[i] = r.tab.event(seq, &r.ring[(seq-1)%uint64(len(r.ring))])
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
