package telemetry

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"flex/internal/clock"
	"flex/internal/obs"
)

// TestPublishBatchDropAccountingUnderChurn runs PublishBatch against a
// topic whose subscriber list is being mutated concurrently (Subscribe /
// Close churn) and checks the drop accounting of a stable, never-read
// subscriber stays exact: with drop-oldest semantics every published
// sample is either still buffered or was counted as dropped. Run under
// -race this also exercises the b.mu -> sub.mu lock order against
// unsubscribe.
func TestPublishBatchDropAccountingUnderChurn(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	const buffer = 4
	stable := b.Subscribe("t", buffer)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := b.Subscribe("t", 1)
				// Drain a little so churn subscribers also hit the
				// drop-oldest path before going away.
				var buf [2]Sample
				sub.RecvBatch(buf[:])
				sub.Close()
			}
		}()
	}

	const rounds, perBatch = 200, 5
	batch := make([]Sample, perBatch)
	for i := 0; i < rounds; i++ {
		for j := range batch {
			batch[j] = Sample{Device: "d", Valid: true, Event: uint64(i*perBatch + j)}
		}
		b.PublishBatch("t", batch)
	}
	close(stop)
	wg.Wait()

	total := rounds * perBatch
	buf := make([]Sample, buffer+1)
	drained := stable.RecvBatch(buf)
	if got := stable.Dropped() + drained; got != total {
		t.Fatalf("stable subscriber accounts for %d samples (%d dropped + %d buffered), want %d published",
			got, stable.Dropped(), drained, total)
	}
	// The broker-wide metric counts every subscriber's drops, so it can
	// only exceed the stable subscriber's count.
	if got := b.Metrics.DroppedSamples.Value(); got < uint64(stable.Dropped()) {
		t.Fatalf("DroppedSamples metric = %d, below the stable subscriber's %d", got, stable.Dropped())
	}
}

// TestPollerStampMonotonicity drives several poll rounds over targets
// that coalesce into one same-topic batch and checks the birth stamps
// survive coalescing in order: per device, MeasuredAt <= PublishedAt
// within each sample and both stamps strictly increase across rounds on
// the advancing clock.
func TestPollerStampMonotonicity(t *testing.T) {
	b := NewBroker("A")
	clk := clock.NewVirtual(t0())
	m1, _ := NewLogicalMeter("u1", StaticMeter{MeterName: "m", Value: 1000})
	m2, _ := NewLogicalMeter("u2", StaticMeter{MeterName: "m", Value: 2000})
	p := NewPoller("p1", clk, []SamplePublisher{b}, []Target{
		{Meter: m1, Topic: "power/ups"},
		{Meter: m2, Topic: "power/ups"},
	})
	sub := b.Subscribe("power/ups", 64)

	const rounds = 5
	for i := 0; i < rounds; i++ {
		p.PollOnce()
		clk.Advance(1500 * time.Millisecond)
	}

	buf := make([]Sample, 64)
	n := sub.RecvBatch(buf)
	if n != 2*rounds {
		t.Fatalf("received %d samples, want %d", n, 2*rounds)
	}
	lastPub := map[string]time.Time{}
	lastMeas := map[string]time.Time{}
	for _, s := range buf[:n] {
		if s.PublishedAt.IsZero() {
			t.Fatalf("sample %s event %d has no publish stamp", s.Device, s.Event)
		}
		if s.PublishedAt.Before(s.MeasuredAt) {
			t.Fatalf("sample %s event %d published %v before measured %v",
				s.Device, s.Event, s.PublishedAt, s.MeasuredAt)
		}
		if prev, ok := lastPub[s.Device]; ok && !s.PublishedAt.After(prev) {
			t.Fatalf("device %s publish stamp went backwards: %v after %v", s.Device, s.PublishedAt, prev)
		}
		if prev, ok := lastMeas[s.Device]; ok && !s.MeasuredAt.After(prev) {
			t.Fatalf("device %s measure stamp went backwards: %v after %v", s.Device, s.MeasuredAt, prev)
		}
		lastPub[s.Device] = s.PublishedAt
		lastMeas[s.Device] = s.MeasuredAt
	}
	// Coalesced same-topic batches are stamped once per flush: the two
	// devices of one round share the same PublishedAt.
	if !lastPub["u1"].Equal(lastPub["u2"]) {
		t.Fatalf("same-round coalesced samples carry different publish stamps: %v vs %v",
			lastPub["u1"], lastPub["u2"])
	}
	// StampPublished must not overwrite a stamp set upstream.
	pre := []Sample{{Device: "x", PublishedAt: t0().Add(time.Hour)}, {Device: "y"}}
	StampPublished(pre, t0().Add(2*time.Hour))
	if !pre[0].PublishedAt.Equal(t0().Add(time.Hour)) {
		t.Fatalf("StampPublished overwrote an existing stamp: %v", pre[0].PublishedAt)
	}
	if !pre[1].PublishedAt.Equal(t0().Add(2 * time.Hour)) {
		t.Fatalf("StampPublished skipped an unstamped sample: %v", pre[1].PublishedAt)
	}
}

// TestSampleSize pins Sample at 88 bytes on 64-bit platforms. Three Sample
// arrays per fleet room scale with it — the subscription rings, the rooms'
// poll batches and the shards' drain buffers — so a field added here is
// paid once per queued sample in every room. Shrinking it further is
// ROADMAP item 10(b): the two time.Time stamps as int64 nanoseconds.
func TestSampleSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Sample{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Sample{}) = %d, want 88", got)
	}
}
