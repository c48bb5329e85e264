package telemetry

import (
	"sync"
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
	// survives batch coalescing and gob transport without allocating.
	PublishedAt time.Time
	// DequeuedAt is when a consumer pulled the sample out of its ingest
	// queue (stamped by the consumer, never by the broker). Together
	// with MeasuredAt and PublishedAt it decomposes sample age into the
	// sample/queue stages of the latency-attribution waterfall
	// (DESIGN.md "Latency attribution").
	DequeuedAt time.Time
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
// The queue is a ring of Sample under mu, so a batch goes in and comes out
// in at most two copies each way. The ring starts empty and grows, by
// doubling at least, to what its traffic needs and never past the depth the
// subscription was made with: a queue costs what it holds, not what it may.
// A remote subscription (RemoteSubscribe) is the same queue on a broker of its
// own that its connection publishes into.
type Subscription struct {
	broker *Broker
	topic  string
	depth  int
	// release, when non-nil, is what else Close lets go of, run once after
	// it unlocks: a remote subscription's connection.
	release func()

	mu sync.Mutex
	// ring[head], ring[head+1], … hold the n queued samples, oldest first,
	// wrapping at len(ring) ≤ depth.
	ring    []Sample
	head, n int
	dropped int
	closed  bool
	// ready holds a token while samples have arrived since a consumer last
	// took one. It is sent to and closed under mu, so a publish never sends
	// on a closed channel.
	ready chan struct{}
}

// Dropped reports how many samples were discarded because the subscriber
// lagged.
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Consume is the blocking consumer's loop: it waits for samples to arrive,
// hands them to fn in arrival order, a buf's worth at most per call, and
// returns once the subscription is closed or fn returns false.
func (s *Subscription) Consume(buf []Sample, fn func(batch []Sample) bool) {
	// A token says "drain now", not how much: drain until RecvBatch is short.
	for range s.ready {
		for {
			n := s.RecvBatch(buf)
			if n > 0 && !fn(buf[:n]) {
				return
			}
			if n < len(buf) {
				break
			}
		}
	}
}

// RecvBatch drains up to len(buf) queued samples into buf, oldest first,
// without blocking, and returns how many it copied: a consumer that fell
// behind catches up in one call. A closed subscription drains what it still
// holds, then keeps returning 0.
//
//flex:hotpath
func (s *Subscription) RecvBatch(buf []Sample) int {
	s.mu.Lock()
	k := min(len(buf), s.n)
	if k > 0 {
		first := copy(buf[:k], s.ring[s.head:])
		copy(buf[first:k], s.ring)
		s.advance(k)
	}
	s.mu.Unlock()
	return k
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
// sample into a full queue drops. s.mu is held.
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
	select {
	case s.ready <- struct{}{}:
	default:
	}
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

// Close unsubscribes and ends Consume; a remote subscription also drops its
// connection. What is queued stays for RecvBatch.
func (s *Subscription) Close() {
	s.broker.unsubscribe(s.topic, s)
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.ready)
	}
	s.mu.Unlock()
	if first && s.release != nil {
		s.release()
	}
}

// Broker is an in-process topic-based publish/subscribe system. Flex
// deploys two independent brokers; controllers subscribe to both and install
// into one LatestPower, which keeps the newest reading per device, so the
// loss of one broker is invisible (paper Figure 7).
type Broker struct {
	Name string
	// Metrics, when non-nil, counts samples dropped from slow subscriber
	// buffers. Set it before publishing begins.
	Metrics *Metrics
	// Recorder, when non-nil, receives a sample-drop event whenever a
	// lagging subscriber forces drop-oldest. Set it before publishing
	// begins.
	Recorder *recorder.Recorder

	mu     sync.Mutex
	topics map[string][]*Subscription
	down   bool
}

// NewBroker creates an empty broker.
func NewBroker(name string) *Broker {
	return &Broker{Name: name, topics: make(map[string][]*Subscription)}
}

// Subscribe registers a subscriber for topic whose queue holds up to
// buffer samples.
func (b *Broker) Subscribe(topic string, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{broker: b, topic: topic, depth: buffer, ready: make(chan struct{}, 1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.topics[topic] = append(b.topics[topic], sub)
	return sub
}

func (b *Broker) unsubscribe(topic string, sub *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	for i, s := range subs {
		if s == sub {
			b.topics[topic] = append(subs[:i], subs[i+1:]...)
			return
		}
	}
}

// PublishBatch fans a batch of samples out to all of topic's subscribers
// under a single lock acquisition — the one ingest path. A subscriber
// whose queue cannot hold the batch loses its oldest samples (stale power
// data is worthless to Flex, fresh data is everything). Publishing on a
// downed broker is a silent no-op (that is the failure the duplicated
// broker masks).
//
// The fan-out runs with b.mu held, iterating the subscriber list in place:
// each subscriber takes the batch in two copies at most and nothing blocks,
// so the critical section is short and PublishBatch allocates nothing in
// steady state — it sits on the poller and fleet-ingest hot paths.
// Subscription locks nest under the broker lock (b.mu -> sub.mu); nothing
// acquires them in the reverse order.
//
//flex:hotpath
func (b *Broker) PublishBatch(topic string, batch []Sample) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return
	}
	dropped := 0
	for _, sub := range b.topics[topic] {
		sub.mu.Lock()
		if !sub.closed {
			dropped += sub.push(batch)
		}
		sub.mu.Unlock()
	}
	b.mu.Unlock()
	if b.Metrics != nil {
		if dropped > 0 {
			b.Metrics.DroppedSamples.Add(uint64(dropped))
		}
		b.Metrics.BatchPublishes.Inc()
	}
	// One aggregated drop event per batch, attributed to the newest sample
	// and emitted after every lock is released (eventcheck: no emission
	// under a held mutex).
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
//
//flex:keep the broker-outage tests in telemetry and the root package inject faults through it
func (b *Broker) SetDown(down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down = down
}

// Topics used by the Flex pipeline.
const (
	TopicUPS  = "power/ups"
	TopicRack = "power/rack"
)
