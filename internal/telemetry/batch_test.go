package telemetry

import (
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
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
		s, _ := takeOne(fast, 0)
		if s.Event != uint64(i) {
			t.Fatalf("fast sub sample %d has event %d, want in-order delivery", i, s.Event)
		}
	}
	// The slow subscriber keeps only the two newest.
	if slow.Dropped() != 3 {
		t.Fatalf("slow sub dropped %d, want 3", slow.Dropped())
	}
	s1, _ := takeOne(slow, 0)
	s2, _ := takeOne(slow, 0)
	if s1.Event != 3 || s2.Event != 4 {
		t.Fatalf("slow sub kept events %d,%d, want 3,4", s1.Event, s2.Event)
	}
}

func TestPublishBatchEmptyAndDown(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	sub := b.Subscribe("t", 4)
	defer sub.Close()

	b.PublishBatch("t", nil)
	if got := b.Metrics.BatchPublishes.Value(); got != 0 {
		t.Fatalf("empty batch counted as a publish (got %d)", got)
	}
	b.SetDown(true)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub, 0); ok {
		t.Fatal("downed broker delivered a batch")
	}
	b.SetDown(false)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub, 0); !ok {
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

func TestRecvBatchClosedSubscription(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 8)
	b.PublishBatch("t", []Sample{{Device: "d", Event: 1}})
	sub.Close()
	buf := make([]Sample, 4)
	// A closed subscription drains what is buffered, then returns 0 forever.
	if n := sub.RecvBatch(buf); n != 1 || buf[0].Event != 1 {
		t.Fatalf("RecvBatch after close = %d (event %d), want 1 buffered sample", n, buf[0].Event)
	}
	if n := sub.RecvBatch(buf); n != 0 {
		t.Fatalf("RecvBatch on drained closed sub = %d, want 0", n)
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
	defer sub.Close()
	view := NewLatestPower()
	batch := make([]Sample, 4)
	for i := range batch {
		batch[i] = Sample{Device: string(rune('a' + i)), Valid: true, Event: uint64(i)}
	}
	buf := make([]Sample, 8)
	b.PublishBatch("t", batch)
	view.UpdateBatch(batch)
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
		view.UpdateBatch(batch)
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
	p := NewPoller("p1", clock.NewVirtual(t0()), []SamplePublisher{b}, []Target{
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
