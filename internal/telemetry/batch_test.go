package telemetry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

func TestPublishBatchFanoutAndDropOldest(t *testing.T) {
	b := NewBroker("A")
	fast := b.Subscribe("t", 8)
	slow := b.Subscribe("t", 2)
	batch := make([]Sample, 5)
	for i := range batch {
		batch[i] = Sample{Device: "d", Event: uint64(i)}
	}
	b.PublishBatch("t", batch)

	if fast.Dropped() != 0 {
		t.Fatalf("fast sub dropped %d, want 0", fast.Dropped())
	}
	for i := 0; i < 5; i++ {
		s, _ := takeOne(fast)
		if s.Event != uint64(i) {
			t.Fatalf("fast sub sample %d has event %d, want in-order delivery", i, s.Event)
		}
	}
	// The slow subscriber keeps only the two newest.
	if slow.Dropped() != 3 {
		t.Fatalf("slow sub dropped %d, want 3", slow.Dropped())
	}
	s1, _ := takeOne(slow)
	s2, _ := takeOne(slow)
	if s1.Event != 3 || s2.Event != 4 {
		t.Fatalf("slow sub kept events %d,%d, want 3,4", s1.Event, s2.Event)
	}
}

func TestPublishBatchEmptyAndDown(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	sub := b.Subscribe("t", 4)

	b.PublishBatch("t", nil)
	if got := b.Metrics.BatchPublishes.Value(); got != 0 {
		t.Fatalf("empty batch counted as a publish (got %d)", got)
	}
	b.SetDown(true)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub); ok {
		t.Fatal("downed broker delivered a batch")
	}
	b.SetDown(false)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub); !ok {
		t.Fatal("recovered broker did not deliver")
	}
}

func TestRecvBatchDrains(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 8)
	for i := 0; i < 5; i++ {
		b.PublishBatch("t", []Sample{{Device: "d", Event: uint64(i)}})
	}
	buf := make([]Sample, 3)
	// First call fills the buffer; second drains the remainder; third
	// returns 0 on an empty buffer without blocking.
	if n := sub.RecvBatch(buf); n != 3 {
		t.Fatalf("first RecvBatch = %d, want 3", n)
	}
	if buf[0].Event != 0 || buf[2].Event != 2 {
		t.Fatalf("first batch events %d..%d, want 0..2", buf[0].Event, buf[2].Event)
	}
	if n := sub.RecvBatch(buf); n != 2 {
		t.Fatalf("second RecvBatch = %d, want 2", n)
	}
	if buf[0].Event != 3 || buf[1].Event != 4 {
		t.Fatalf("second batch events %d,%d, want 3,4", buf[0].Event, buf[1].Event)
	}
	if n := sub.RecvBatch(buf); n != 0 {
		t.Fatalf("empty RecvBatch = %d, want 0", n)
	}
}

// TestSubscriptionDrainWraps: queued samples that wrap around the end of the
// ring reach Drain's fn as two runs, the ring's tail and then its head, in
// arrival order, and leave the queue empty.
func TestSubscriptionDrainWraps(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 4)
	publish := func(events ...uint64) {
		batch := make([]Sample, len(events))
		for i, e := range events {
			batch[i] = Sample{Device: "d", Event: e}
		}
		b.PublishBatch("t", batch)
	}
	drain := func() (runs [][]uint64, n int) {
		n = sub.Drain(func(run []Sample) { runs = append(runs, events(run)) })
		return runs, n
	}
	publish(1, 2, 3, 4) // the ring grows to its depth of 4
	if n := sub.RecvBatch(make([]Sample, 3)); n != 3 {
		t.Fatalf("RecvBatch = %d, want 3", n)
	}
	publish(5, 6) // 4 sits in the ring's last slot, 5 and 6 wrap to its front
	if runs, n := drain(); n != 3 || !reflect.DeepEqual(runs, [][]uint64{{4}, {5, 6}}) {
		t.Fatalf("Drain = %d in runs %v, want 3 in runs [[4] [5 6]]", n, runs)
	}
	if runs, n := drain(); n != 0 || runs != nil {
		t.Fatalf("Drain of an empty queue = %d in runs %v, want 0 and no call", n, runs)
	}
	if n := sub.RecvBatch(make([]Sample, 4)); n != 0 {
		t.Fatalf("RecvBatch after Drain = %d, want 0", n)
	}
}

// TestBatchPathZeroAllocations pins the whole batched ingest hot path —
// PublishBatch fan-out (including drop-oldest), RecvBatch drain and the
// view's UpdateBatch — at zero allocations per call once the queue has
// grown to its depth and the view has seen its devices: the runtime
// counterpart of the static allocfree roots on those functions.
func TestBatchPathZeroAllocations(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	sub := b.Subscribe("t", 2)
	view := NewLatestPower()
	batch := make([]Sample, 4)
	for i := range batch {
		batch[i] = Sample{Device: string(rune('a' + i)), Valid: true, Event: uint64(i)}
	}
	buf := make([]Sample, 8)
	b.PublishBatch("t", batch)
	view.UpdateBatch(batch, t0())
	if allocs := testing.AllocsPerRun(1000, func() {
		b.PublishBatch("t", batch)
	}); allocs != 0 {
		t.Fatalf("PublishBatch allocated %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		sub.RecvBatch(buf)
	}); allocs != 0 {
		t.Fatalf("RecvBatch allocated %.1f times per call, want 0", allocs)
	}
	at := t0()
	if allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Second)
		for i := range batch {
			batch[i].MeasuredAt = at
		}
		view.UpdateBatch(batch, at)
	}); allocs != 0 {
		t.Fatalf("UpdateBatch allocated %.1f times per call, want 0", allocs)
	}
	if v, gotAt, ok := view.Get("d"); !ok || v != batch[3].Power || !gotAt.Equal(at) {
		t.Fatalf("the measured UpdateBatch calls installed nothing: Get(d) = %v %v %v", v, gotAt, ok)
	}
}

// TestPollerBatchesByTopic checks PollOnce hands consecutive same-topic
// targets to brokers as one batch instead of one publish per device.
func TestPollerBatchesByTopic(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	m1, _ := NewLogicalMeter("u1", StaticMeter{MeterName: "m", Value: 1000})
	m2, _ := NewLogicalMeter("u2", StaticMeter{MeterName: "m", Value: 2000})
	m3, _ := NewLogicalMeter("r1", StaticMeter{MeterName: "m", Value: 300})
	p := NewPoller("p1", clock.NewVirtual(t0()), []*Broker{b}, []Target{
		{Meter: m1, Topic: "power/ups"},
		{Meter: m2, Topic: "power/ups"},
		{Meter: m3, Topic: "power/rack"},
	})
	ups := b.Subscribe("power/ups", 8)
	rack := b.Subscribe("power/rack", 8)
	p.PollOnce()
	// Two topic runs → two PublishBatch calls, three samples total.
	if got := b.Metrics.BatchPublishes.Value(); got != 2 {
		t.Fatalf("BatchPublishes = %d, want 2 (one per topic run)", got)
	}
	upsBuf := make([]Sample, 8)
	if n := ups.RecvBatch(upsBuf); n != 2 {
		t.Fatalf("ups topic delivered %d samples, want 2", n)
	}
	rackBuf := make([]Sample, 8)
	if n := rack.RecvBatch(rackBuf); n != 1 {
		t.Fatalf("rack topic delivered %d samples, want 1", n)
	}
}

// TestRecordedViewBatchAllocFree: once a recorded view has taken a poll, so
// that every device's name is interned, the next polls install and record
// without allocating — one recorder batch each, the arrivals on consecutive
// seqs naming the role and the device, each bound to its slot.
func TestRecordedViewBatchAllocFree(t *testing.T) {
	rec := recorder.New(1 << 12)
	view := NewLatestPower()
	view.SetRecorder(rec, "rack-view")
	poll := make([]Sample, 275)
	for i := range poll {
		poll[i] = Sample{Device: fmt.Sprintf("rack-%03d", i), Power: power.Watts(i), Valid: i%50 != 7, Event: uint64(1000 + i)}
	}
	at := t0()
	deliver := func() {
		at = at.Add(2 * time.Second)
		for i := range poll {
			poll[i].MeasuredAt = at
		}
		view.UpdateBatch(poll, at)
	}
	deliver()
	if allocs := testing.AllocsPerRun(100, deliver); allocs != 0 {
		t.Fatalf("a recorded view's UpdateBatch allocated %.1f times per poll after its first, want 0", allocs)
	}
	events := rec.Snapshot()
	valid := 0
	for i := range poll {
		if poll[i].Valid {
			valid++
		}
	}
	last := events[len(events)-valid:]
	k := 0
	for i, s := range poll {
		if !s.Valid {
			continue
		}
		e := last[k]
		k++
		if e.Type != recorder.TypeSampleArrive || e.Actor != "rack-view" || e.Subject != s.Device || e.Cause != s.Event || e.Value != float64(s.Power) || !e.Time.Equal(at) {
			t.Fatalf("arrival %d is %+v, want rack-view's arrival of %+v", k, e, s)
		}
		if k > 1 && e.Seq != last[k-2].Seq+1 {
			t.Fatalf("arrival %d has seq %d after %d", k, e.Seq, last[k-2].Seq)
		}
		if _, _, seq, ok := view.GetEvent(s.Device); !ok || seq != e.Seq {
			t.Fatalf("GetEvent(%s) cites seq %d, want %d (device %d)", s.Device, seq, e.Seq, i)
		}
	}
}
