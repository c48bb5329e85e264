package recorder

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func TestEmitAssignsMonotonicSeq(t *testing.T) {
	r := New(16)
	for i := 1; i <= 5; i++ {
		if got := r.Emit(Event{Type: TypeSamplePublish, Time: t0}); got != uint64(i) {
			t.Fatalf("Emit #%d returned seq %d", i, got)
		}
	}
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("Snapshot returned %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if seq := r.Emit(Event{Type: TypeMeta}); seq != 0 {
		t.Fatalf("nil Emit returned %d", seq)
	}
	if ep := r.NextEpisode(); ep != 0 {
		t.Fatalf("nil NextEpisode returned %d", ep)
	}
}

// Backpressure: under a burst larger than the ring, the oldest events are
// overwritten, the retained window stays contiguous and ends at the
// newest event, and Overwritten counts the evictions.
func TestRingOverwriteUnderBurst(t *testing.T) {
	const capacity, burst = 64, 1000
	r := New(capacity)
	for i := 0; i < burst; i++ {
		r.Emit(Event{Type: TypeSampleArrive, Time: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		want := uint64(burst - capacity + i + 1)
		if e.Seq != want {
			t.Fatalf("retained[%d].Seq = %d, want %d (window must be the newest contiguous range)", i, e.Seq, want)
		}
	}
	if got := r.Overwritten(); got != burst-capacity {
		t.Fatalf("Overwritten = %d, want %d", got, burst-capacity)
	}
	if got := r.Emitted(); got != burst {
		t.Fatalf("Emitted = %d, want %d", got, burst)
	}
}

// Single and batch emitters share the ring and the name table. The
// recorder has one owner, so concurrent emitters are interleaved on it in
// a seeded order, interning as they go: every batch takes consecutive
// seqs and names its emitter's subject, the retained window stays
// contiguous and ends at the newest event, and Overwritten counts the
// evictions.
func TestConcurrentBurstKeepsSeqContiguous(t *testing.T) {
	const capacity, emitters, each, batch = 64, 8, 500, 5
	const burst = emitters * each
	r := New(capacity)
	rng := rand.New(rand.NewSource(1))
	// at is the time of the event with sequence seq, so the window shows
	// where each event landed.
	at := func(seq uint64) time.Time { return t0.Add(time.Duration(seq) * time.Millisecond) }
	entries := make([]Entry, batch)
	var left [emitters]int
	for g := range left {
		left[g] = each
	}
	for r.Emitted() < burst {
		g := rng.Intn(emitters)
		for left[g] == 0 {
			g = (g + 1) % emitters
		}
		subject, next := fmt.Sprintf("UPS-%d", g), r.Emitted()+1
		if g%2 == 0 {
			if seq := r.Emit(Event{Type: TypeSamplePublish, Time: at(next), Actor: "poller", Subject: subject}); seq != next {
				t.Fatalf("Emit returned seq %d, want %d", seq, next)
			}
			left[g]--
			continue
		}
		actor, name := r.Intern("ups-view"), r.Intern(subject)
		for k := range entries {
			entries[k] = Entry{Time: at(next + uint64(k)), Subject: name}
		}
		if first := r.EmitBatch(TypeSampleArrive, actor, entries); first != next {
			t.Fatalf("EmitBatch returned seq %d, want %d", first, next)
		}
		left[g] -= batch
		evs := r.Snapshot()
		for _, e := range evs[len(evs)-batch:] {
			if e.Subject != subject || e.Actor != "ups-view" || e.Type != TypeSampleArrive {
				t.Fatalf("seq %d of a batch from %s reads %v from %s by %s", e.Seq, subject, e.Type, e.Subject, e.Actor)
			}
		}
	}
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		if want := uint64(burst - capacity + i + 1); e.Seq != want || !e.Time.Equal(at(want)) {
			t.Fatalf("retained[%d] is seq %d at %v, want %d at %v (window must be the newest contiguous range)", i, e.Seq, e.Time, want, at(want))
		}
		if want := map[Type]string{TypeSamplePublish: "poller", TypeSampleArrive: "ups-view"}[e.Type]; e.Actor != want {
			t.Fatalf("a %v event names actor %q, want %q", e.Type, e.Actor, want)
		}
	}
	if got := r.Overwritten(); got != burst-capacity {
		t.Fatalf("Overwritten = %d, want %d", got, burst-capacity)
	}
	if got := r.Seq(); got != burst {
		t.Fatalf("Seq = %d, want %d", got, burst)
	}
}

// The emission hot path must not allocate: the recorder sits on the
// telemetry publish/arrive path, mirroring the obs registry discipline.
// Neither must a batch, nor interning a string already in the table.
func TestEmitZeroAllocs(t *testing.T) {
	r := New(1024)
	e := Event{
		Type:    TypeSampleArrive,
		Time:    t0,
		Actor:   "ups-view",
		Subject: "UPS-1",
		Value:   1.2e6,
		Cause:   7,
	}
	r.Emit(e)
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(e) }); allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", allocs)
	}
	actor := r.Intern("ups-view")
	batch := make([]Entry, 275)
	for k := range batch {
		batch[k] = Entry{Time: t0.Add(time.Duration(k)), Subject: r.Intern(fmt.Sprintf("rack-%03d", k)), Value: float64(k), Cause: uint64(k)}
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Intern("UPS-1")
		r.EmitBatch(TypeSampleArrive, actor, batch)
	})
	if allocs != 0 {
		t.Fatalf("Intern and EmitBatch allocate %.1f times per batch, want 0", allocs)
	}
}

// The ring stores records of at most 64 bytes that hold no pointers, so
// that a recorder is half the bytes of a ring of Events and the GC never
// scans it.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 64 {
		t.Fatalf("record is %d B, want at most 64", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("record%s is a %v, which holds a pointer", path, ty)
		}
	}
	walk("", reflect.TypeOf(record{}))
}

// New(1<<18), the capacity an emulation run records into, allocates the
// ring of records and the presized tables: at most 16.8 MB, where a ring
// of Events was 33.5 MB.
func TestNewAllocates(t *testing.T) {
	const limit = 16_800_000
	got := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := New(1 << 18)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("New(1<<18) allocated %d B", got)
	if got > limit {
		t.Fatalf("New(1<<18) allocated %d B, want at most %d", got, limit)
	}
}

// Snapshot rebuilds every Event from the ring: field for field what was
// emitted, singly or in a batch, and its JSON the bytes the sink wrote.
// The events cover a location other than UTC, the zero Time and an instant
// past what UnixNano holds, empty, repeated and long strings, and every
// Type.
func TestSnapshotRoundTrip(t *testing.T) {
	east := time.FixedZone("UTC+5:30", 5*3600+1800)
	times := []time.Time{
		t0.Add(123456789 * time.Nanosecond),
		{},
		t0.In(east).Add(time.Millisecond),
		time.Date(2600, 1, 2, 3, 4, 5, 6, east),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		t0.In(time.Local),
		time.Date(1200, 7, 1, 0, 0, 0, 999999999, time.UTC),
	}
	long := strings.Repeat(`{"id":"rack-042","workload":"batch"},`, 1500)
	strs := []string{"", "ctl-1", "UPS-2", "", "rack-007", long, "ctl-1", "héllo <&> \"quoted\"\n"}
	var buf bytes.Buffer
	r := New(4096)
	r.AttachSink(NewSink(&buf))
	var want []Event
	pick := func(i int) string { return strs[i%len(strs)] }
	for i := 0; i < 200; i++ {
		if i%3 == 2 {
			actor := pick(i)
			batch := make([]Entry, i%7)
			for k := range batch {
				batch[k] = Entry{Time: times[(i+k)%len(times)], Subject: r.Intern(pick(i + k + 1)), Value: float64(i*k) / 7, Cause: uint64(i + k)}
			}
			first := r.EmitBatch(TypeSampleArrive, r.Intern(actor), batch)
			for k, b := range batch {
				want = append(want, Event{Seq: first + uint64(k), Cause: b.Cause, Time: b.Time, Type: TypeSampleArrive, Actor: actor, Subject: pick(i + k + 1), Value: b.Value})
			}
			continue
		}
		e := Event{
			Cause: uint64(i) * 3, Episode: uint64(i % 4), Time: times[i%len(times)],
			Type: Type(i % int(numTypes)), Actor: pick(i), Subject: pick(i + 3),
			Value: float64(i) * 1.5, Score: -float64(i) / 3, Aux: int64(i) - 50, Detail: pick(i + 5),
		}
		e.Seq = r.Emit(e)
		want = append(want, e)
	}
	if err := r.DetachSink(); err != nil {
		t.Fatal(err)
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot returned %d events, want %d", len(got), len(want))
	}
	var rebuilt bytes.Buffer
	s := NewSink(&rebuilt)
	for i := range got {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Time.Location() != w.Time.Location() {
			t.Fatalf("event %d: Time %v (%p), want %v (%p)", i, g.Time, g.Time.Location(), w.Time, w.Time.Location())
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if g != w {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, g, w)
		}
		if err := s.write(got[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt.Bytes(), buf.Bytes()) {
		t.Fatalf("the snapshot's JSON (%d B) differs from the sink's (%d B)", rebuilt.Len(), buf.Len())
	}
	seen := map[Type]bool{}
	for _, e := range got {
		seen[e.Type] = true
	}
	if len(seen) != int(numTypes) {
		t.Fatalf("the events cover %d of %d types", len(seen), numTypes)
	}
}

// A batch records, and writes to the sink, exactly what a loop of Emit
// does.
func TestEmitBatchMatchesEmitLoop(t *testing.T) {
	var loopLog, batchLog bytes.Buffer
	loop, batched := New(8), New(8)
	loop.AttachSink(NewSink(&loopLog))
	batched.AttachSink(NewSink(&batchLog))
	for round := 0; round < 4; round++ {
		entries := make([]Entry, 3)
		for k := range entries {
			subject := fmt.Sprintf("rack-%d", k)
			e := Event{Cause: uint64(round*10 + k), Time: t0.Add(time.Duration(round) * time.Second), Type: TypeSampleArrive, Actor: "rack-view", Subject: subject, Value: float64(k)}
			loop.Emit(e)
			entries[k] = Entry{Time: e.Time, Subject: batched.Intern(subject), Value: e.Value, Cause: e.Cause}
		}
		if first := batched.EmitBatch(TypeSampleArrive, batched.Intern("rack-view"), entries); first != uint64(round*3+1) {
			t.Fatalf("round %d: EmitBatch returned seq %d, want %d", round, first, round*3+1)
		}
	}
	if got, want := batched.Snapshot(), loop.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched ring holds\n%+v\nwant\n%+v", got, want)
	}
	if batched.Overwritten() != 4 || batched.Emitted() != 12 {
		t.Fatalf("Overwritten, Emitted = %d, %d; want 4, 12", batched.Overwritten(), batched.Emitted())
	}
	if err := errors.Join(loop.DetachSink(), batched.DetachSink()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchLog.Bytes(), loopLog.Bytes()) {
		t.Fatal("the batch's sink log differs from the loop's")
	}
	var nilRec *Recorder
	if nilRec.EmitBatch(TypeSampleArrive, 0, make([]Entry, 2)) != 0 || nilRec.Intern("x") != 0 || loop.EmitBatch(TypeSampleArrive, 0, nil) != 0 {
		t.Fatal("a nil recorder or an empty batch assigned a seq")
	}
}

func TestNextEpisode(t *testing.T) {
	r := New(8)
	if a, b := r.NextEpisode(), r.NextEpisode(); a != 1 || b != 2 {
		t.Fatalf("NextEpisode = %d, %d; want 1, 2", a, b)
	}
	if got := r.Episodes(); got != 2 {
		t.Fatalf("Episodes = %d, want 2", got)
	}
}

func TestQueryFilters(t *testing.T) {
	r := New(64)
	pub := r.Emit(Event{Type: TypeSamplePublish, Time: t0, Actor: "poller-1", Subject: "UPS-2", Value: 9.9e5})
	arr := r.Emit(Event{Type: TypeSampleArrive, Time: t0, Actor: "ups-view", Subject: "UPS-2", Cause: pub})
	det := r.Emit(Event{Type: TypeOverdrawDetect, Time: t0, Actor: "ctl-1", Subject: "UPS-2", Cause: arr, Episode: 1})
	plan := r.Emit(Event{Type: TypePlanStart, Time: t0, Actor: "ctl-1", Cause: det, Episode: 1})
	act := r.Emit(Event{Type: TypeActionPlanned, Time: t0, Actor: "ctl-1", Subject: "rack-3", Cause: plan, Episode: 1})
	r.Emit(Event{Type: TypeSamplePublish, Time: t0, Actor: "poller-1", Subject: "UPS-3"})

	events := r.Snapshot()
	if got := ApplyFilter(events, Filter{}); len(got) != len(events) {
		t.Fatalf("the zero filter kept %d of %d events", len(got), len(events))
	}
	got := ApplyFilter(events, Filter{Episode: 1})
	if len(got) != 3 || got[0].Seq != det || got[1].Seq != plan || got[2].Seq != act {
		t.Fatalf("episode filter returned %+v, want the detect, plan and action events", got)
	}
	if got := ApplyFilter(events, Filter{Episode: 2}); len(got) != 0 {
		t.Fatalf("an unknown episode kept %d events", len(got))
	}
}

// An episode query with WithCauses must return the full causal chain —
// including the triggering telemetry sample events, which carry no
// episode ID themselves.
func TestQueryEpisodeCausalClosure(t *testing.T) {
	r := New(64)
	pub := r.Emit(Event{Type: TypeSamplePublish, Time: t0, Subject: "UPS-1"})
	arr := r.Emit(Event{Type: TypeSampleArrive, Time: t0, Subject: "UPS-1", Cause: pub})
	r.Emit(Event{Type: TypeSampleArrive, Time: t0, Subject: "UPS-9"}) // unrelated
	det := r.Emit(Event{Type: TypeOverdrawDetect, Time: t0, Subject: "UPS-1", Cause: arr, Episode: 3})
	plan := r.Emit(Event{Type: TypePlanStart, Time: t0, Cause: det, Episode: 3})
	planned := r.Emit(Event{Type: TypeActionPlanned, Time: t0, Subject: "rack-1", Cause: plan, Episode: 3})
	disp := r.Emit(Event{Type: TypeActionDispatch, Time: t0, Subject: "rack-1", Cause: planned, Episode: 3})
	ack := r.Emit(Event{Type: TypeActionAck, Time: t0, Subject: "rack-1", Cause: disp, Episode: 3})

	got := ApplyFilter(r.Snapshot(), Filter{Episode: 3, WithCauses: true})
	want := []uint64{pub, arr, det, plan, planned, disp, ack}
	if len(got) != len(want) {
		t.Fatalf("closure returned %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Seq != want[i] {
			t.Fatalf("closure[%d].Seq = %d, want %d", i, e.Seq, want[i])
		}
	}
}

type failingWriter struct {
	limit int // bytes accepted before failing
	wrote int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.limit {
		return 0, errors.New("disk full")
	}
	f.wrote += len(p)
	return len(p), nil
}

// A sink write error must surface via SinkErr while the ring keeps
// recording.
func TestSinkErrorLatchesAndRingSurvives(t *testing.T) {
	fw := &failingWriter{limit: 200}
	r := New(32)
	s := &Sink{w: newTinyBufWriter(fw)}
	r.AttachSink(s)
	for i := 0; i < 100; i++ {
		r.Emit(Event{Type: TypeSamplePublish, Time: t0, Subject: "UPS-1", Value: float64(i)})
	}
	if r.SinkErr() == nil {
		t.Fatal("SinkErr = nil after writer failure")
	}
	if !strings.Contains(r.SinkErr().Error(), "disk full") {
		t.Fatalf("SinkErr = %v", r.SinkErr())
	}
	if got := r.Seq(); got != 100 {
		t.Fatalf("ring stopped recording after sink failure: seq %d", got)
	}
}

// closingWriter is a failingWriter that records its Close.
type closingWriter struct {
	failingWriter
	closed bool
}

func (c *closingWriter) Close() error {
	c.closed = true
	return nil
}

// A write error must not be lost: DetachSink returns it and still closes
// the file the sink owns, so a truncated recording fails its run.
func TestDetachSinkReturnsWriteError(t *testing.T) {
	cw := &closingWriter{failingWriter: failingWriter{limit: 200}}
	r := New(32)
	r.AttachSink(&Sink{w: newTinyBufWriter(cw), c: cw})
	for i := 0; i < 100; i++ {
		r.Emit(Event{Type: TypeSamplePublish, Time: t0, Subject: "UPS-1", Value: float64(i)})
	}
	if err := r.DetachSink(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("DetachSink = %v, want the disk-full write error", err)
	}
	if !cw.closed {
		t.Fatal("DetachSink did not close the sink's writer")
	}
}

func TestDetachSinkFlushes(t *testing.T) {
	var buf bytes.Buffer
	r := New(32)
	r.AttachSink(NewSink(&buf))
	r.Emit(Event{Type: TypeMeta, Time: t0, Detail: "header"})
	r.Emit(Event{Type: TypeUPSFail, Time: t0, Subject: "UPS-0"})
	if err := r.DetachSink(); err != nil {
		t.Fatalf("DetachSink: %v", err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != 2 || evs[0].Type != TypeMeta || evs[1].Subject != "UPS-0" {
		t.Fatalf("round trip mismatch: %+v", evs)
	}
}
