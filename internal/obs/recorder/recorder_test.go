package recorder

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestConcurrentBurstKeepsSeqContiguous(t *testing.T) {
	const goroutines, each = 8, 500
	r := New(256)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(Event{Type: TypeSamplePublish, Time: t0})
			}
		}()
	}
	wg.Wait()
	if got := r.Seq(); got != goroutines*each {
		t.Fatalf("Seq = %d, want %d", got, goroutines*each)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("ring not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// The emission hot path must not allocate: the recorder sits on the
// telemetry publish/arrive path, mirroring the obs registry discipline.
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
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(e)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f times per call, want 0", allocs)
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
