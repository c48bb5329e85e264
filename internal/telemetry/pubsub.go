package telemetry

import (
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// Sample is one published power measurement.
type Sample struct {
	Device string // e.g. "UPS-1" or "rack-12-03"
	Power  power.Watts
	// Valid is false when the poller could not obtain quorum for the
	// device; consumers must treat the power as unknown.
	Valid bool
	// MeasuredAt is when the poller took the reading; consumers use it
	// for latency accounting, and the view keeps the newest per device,
	// which is what deduplicates the redundant paths.
	MeasuredAt time.Time
	// Event is the flight-recorder sequence of this sample's
	// sample-publish event (0 when unrecorded); downstream events
	// reference it as their Cause, rooting the causal chain.
	Event uint64
	// PublishedAt is when the sample entered a broker (stamped by the
	// publisher, from its injected clock, just before PublishBatch).
	// Zero when the producer predates stamping. Fixed-size so the stamp
	// survives batch coalescing without allocating.
	PublishedAt time.Time
	// The dequeue instant, the third stamp of the latency-attribution
	// waterfall (DESIGN.md "Latency attribution"), is one per drained
	// batch, not one per sample: the consumer hands it to the view
	// (LatestPower.UpdateBatch), which keeps it in the reading's Stamps.
}

// StampPublished sets PublishedAt=at on every sample in batch that does
// not already carry a publish stamp. Callers stamp immediately before
// PublishBatch; the helper is a plain field loop so it stays on the
// zero-alloc ingest path.
//
//flex:hotpath
func StampPublished(batch []Sample, at time.Time) {
	for i := range batch {
		if batch[i].PublishedAt.IsZero() {
			batch[i].PublishedAt = at
		}
	}
}

// Subscription receives samples for one topic through a bounded queue.
// Drop-oldest semantics keep slow subscribers from blocking the pipeline —
// stale power data is worthless to Flex, fresh data is everything.
//
// The queue is a ring of Sample, so a batch enters in at most two copies
// and leaves the same way (RecvBatch) or as at most two runs read in place
// (Drain). The ring starts empty and grows, by doubling at least, to what
// its traffic needs and never past the depth the subscription was made
// with: a queue costs what it holds, not what it may.
//
// A subscription takes no lock. Its broker's publisher writes it and its
// consumer reads it, both on the goroutine that steps the room — in
// emu.RunFleet, the loop that ingests and the crew worker that pumps the
// room, which the crew's barrier orders.
type Subscription struct {
	depth int

	// ring[head], ring[head+1], … hold the n queued samples, oldest first,
	// wrapping at len(ring) ≤ depth.
	ring    []Sample
	head, n int
	dropped int
}

// Dropped reports how many samples were discarded because the subscriber
// lagged.
func (s *Subscription) Dropped() int { return s.dropped }

// RecvBatch drains up to len(buf) queued samples into buf, oldest first,
// without blocking, and returns how many it copied: a consumer that fell
// behind catches up in one call.
//
//flex:hotpath
func (s *Subscription) RecvBatch(buf []Sample) int {
	k := min(len(buf), s.n)
	first, second := s.runs(k)
	copy(buf[copy(buf, first):], second)
	s.advance(k)
	return k
}

// Drain hands every queued sample to fn straight from the ring, oldest
// first, in at most two contiguous runs, and returns how many it handed
// over; the queue is empty afterwards. fn must not keep the run or publish
// to this subscription: it is for a consumer that installs the samples, as
// a shard's pump does into its view.
func (s *Subscription) Drain(fn func(run []Sample)) int {
	k := s.n
	first, second := s.runs(k)
	if len(first) > 0 {
		fn(first)
	}
	if len(second) > 0 {
		fn(second)
	}
	s.advance(k)
	return k
}

// runs returns the k ≤ n oldest queued samples as the ring holds them: up to
// its end, then what wrapped to its front.
func (s *Subscription) runs(k int) (first, second []Sample) {
	if end := s.head + k; end > len(s.ring) {
		return s.ring[s.head:], s.ring[:end-len(s.ring)]
	}
	return s.ring[s.head : s.head+k], nil
}

// advance forgets the k ≤ n oldest queued samples.
func (s *Subscription) advance(k int) {
	if s.head += k; s.head >= len(s.ring) {
		s.head -= len(s.ring)
	}
	s.n -= k
}

// push queues batch behind what the ring holds and returns how many samples
// that evicted (and counts them as dropped): the n + len(batch) − depth
// oldest of the two together, which is what sending the batch sample by
// sample into a full queue drops.
//
//flex:hotpath
func (s *Subscription) push(batch []Sample) (evicted int) {
	if over := s.n + len(batch) - s.depth; over > 0 {
		evicted = over
		s.dropped += over
		// What the queue cannot give up comes off the batch's own head.
		queued := min(over, s.n)
		s.advance(queued)
		batch = batch[over-queued:]
	}
	if s.n+len(batch) > len(s.ring) {
		s.grow(s.n + len(batch))
	}
	tail := s.head + s.n
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	first := copy(s.ring[tail:], batch)
	copy(s.ring, batch[first:])
	s.n += len(batch)
	return evicted
}

// grow moves the queued samples to the front of a ring with room for need:
// twice the old one, or need if that is more, and never past the depth.
//
//flex:coldpath
func (s *Subscription) grow(need int) {
	ring := make([]Sample, min(max(2*len(s.ring), need), s.depth))
	first := copy(ring, s.ring[s.head:min(s.head+s.n, len(s.ring))])
	copy(ring[first:s.n], s.ring)
	s.ring, s.head = ring, 0
}

// Broker is an in-process topic-based publish/subscribe system. Flex
// deploys two independent brokers; controllers subscribe to both and install
// into one LatestPower, which keeps the newest reading per device, so the
// loss of one broker is invisible (paper Figure 7). A broker has one owner
// and takes no lock: the goroutine that steps its rooms subscribes to it,
// publishes to it and injects its faults.
type Broker struct {
	Name string
	// Metrics, when non-nil, counts samples dropped from slow subscriber
	// buffers. Set it before publishing begins.
	Metrics *Metrics
	// Recorder, when non-nil, receives a sample-drop event whenever a
	// lagging subscriber forces drop-oldest. Set it before publishing
	// begins.
	Recorder *recorder.Recorder

	topics map[string][]*Subscription
	down   bool
}

// NewBroker creates an empty broker.
func NewBroker(name string) *Broker {
	return &Broker{Name: name, topics: make(map[string][]*Subscription)}
}

// Subscribe registers a subscriber for topic whose queue holds up to
// buffer samples, for the life of the broker.
func (b *Broker) Subscribe(topic string, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{depth: buffer}
	b.topics[topic] = append(b.topics[topic], sub)
	return sub
}

// PublishBatch fans a batch of samples out to all of topic's subscribers —
// the one ingest path. A subscriber whose queue cannot hold the batch loses
// its oldest samples (stale power data is worthless to Flex, fresh data is
// everything). Publishing on a downed broker is a silent no-op (that is the
// failure the duplicated broker masks). Each subscriber takes the batch in
// two copies at most, so PublishBatch allocates nothing in steady state —
// it sits on the poller and fleet-ingest hot paths.
//
//flex:hotpath
func (b *Broker) PublishBatch(topic string, batch []Sample) {
	if len(batch) == 0 || b.down {
		return
	}
	dropped := 0
	for _, sub := range b.topics[topic] {
		dropped += sub.push(batch)
	}
	if b.Metrics != nil {
		if dropped > 0 {
			b.Metrics.DroppedSamples.Add(uint64(dropped))
		}
		b.Metrics.BatchPublishes.Inc()
	}
	// One aggregated drop event per batch, attributed to the newest sample.
	if dropped > 0 && b.Recorder != nil {
		last := batch[len(batch)-1]
		b.Recorder.Emit(recorder.Event{
			Type:    recorder.TypeSampleDrop,
			Time:    last.MeasuredAt,
			Actor:   b.Name,
			Subject: last.Device,
			Cause:   last.Event,
			Aux:     int64(dropped),
		})
	}
}

// SetDown injects or clears a broker outage.
func (b *Broker) SetDown(down bool) { b.down = down }

// Topics used by the Flex pipeline.
const (
	TopicUPS  = "power/ups"
	TopicRack = "power/rack"
)
