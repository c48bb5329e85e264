package telemetry

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"flex/internal/clock"
	"flex/internal/obs"
)

// TestPublishBatchDropAccountingUnderChurn interleaves PublishBatch calls
// with RecvBatch reads of all but the last of a fixed set of subscribers of
// depth 1 to 4, in a seeded order, and checks the drop accounting stays
// exact: with drop-oldest semantics every published sample is, for each
// subscriber, either received, still buffered or counted as dropped, and
// the broker-wide metric is the sum of the subscribers' drops.
func TestPublishBatchDropAccountingUnderChurn(t *testing.T) {
	b := NewBroker("A")
	b.Metrics = NewMetrics(obs.NewRegistry())
	const depth = 4
	subs := make([]*Subscription, 5)
	for i := range subs {
		subs[i] = b.Subscribe("t", 1+i%depth)
	}
	received := make([]int, len(subs))

	const rounds, perBatch = 400, 5
	rng := rand.New(rand.NewSource(1))
	batch := make([]Sample, perBatch)
	var buf [2]Sample
	for i := 0; i < rounds; i++ {
		for j := range batch {
			batch[j] = Sample{Device: "d", Valid: true, Event: uint64(i*perBatch + j)}
		}
		b.PublishBatch("t", batch)
		for reads := rng.Intn(8); reads > 0; reads-- {
			r := rng.Intn(len(subs) - 1) // the last one is never read
			received[r] += subs[r].RecvBatch(buf[:])
		}
	}

	total := rounds * perBatch
	dropped := 0
	for i, sub := range subs {
		buffered := sub.RecvBatch(make([]Sample, depth))
		if got := received[i] + buffered + sub.Dropped(); got != total {
			t.Fatalf("subscriber %d accounts for %d samples (%d received + %d buffered + %d dropped), want %d published",
				i, got, received[i], buffered, sub.Dropped(), total)
		}
		if i < len(subs)-1 && received[i] == 0 {
			t.Fatalf("subscriber %d was never read", i)
		}
		dropped += sub.Dropped()
	}
	if got := b.Metrics.DroppedSamples.Value(); got != uint64(dropped) {
		t.Fatalf("DroppedSamples metric = %d, want the subscribers' %d", got, dropped)
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
	p := NewPoller("p1", clk, []*Broker{b}, []Target{
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
// paid once per queued sample in every room. The view already keeps its
// stamps as int64 nanoseconds (DESIGN.md "Fleet", "What a room keeps");
// the sample's two time.Time stamps are still 48 of its bytes.
func TestSampleSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Sample{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Sample{}) = %d, want 88", got)
	}
}
