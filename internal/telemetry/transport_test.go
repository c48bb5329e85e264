package telemetry

import (
	"net"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/power"
)

// startServer spins up a BrokerServer on a loopback listener.
func startServer(t *testing.T) (*BrokerServer, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBrokerServer(NewBroker("net-A"))
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(srv.Close)
	return srv, l.Addr().String()
}

// subscribed waits until srv's broker has n subscribers on topic.
func subscribed(t *testing.T, srv *BrokerServer, topic string, n int) {
	t.Helper()
	waitFor(t, func() bool {
		srv.Broker.mu.Lock()
		defer srv.Broker.mu.Unlock()
		return len(srv.Broker.topics[topic]) == n
	})
}

// publishUntilDelivered publishes batch through pub until sub receives a
// sample (the subscribe handshake races the first publish on a fresh
// connection) and returns that sample and what else sub holds.
func publishUntilDelivered(t *testing.T, pub SamplePublisher, topic string, batch []Sample, sub *Subscription) []Sample {
	t.Helper()
	buf := make([]Sample, 64)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		pub.PublishBatch(topic, batch)
		if s, ok := takeOne(sub, 20*time.Millisecond); ok {
			return append([]Sample{s}, buf[:sub.RecvBatch(buf)]...)
		}
	}
	t.Fatal("no sample received")
	return nil
}

func TestTransportPublishSubscribe(t *testing.T) {
	_, addr := startServer(t)
	sub, err := RemoteSubscribe(addr, TopicUPS)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	pub := NewRemotePublisher(addr, nil)
	defer pub.Close()
	want := make([]Sample, 3)
	for i := range want {
		want[i] = Sample{Device: "UPS-1", Power: power.Watts(i+1) * power.MW, Valid: i != 1,
			MeasuredAt: time.Unix(100+int64(i), 0).UTC(), Event: uint64(7 + i)}
	}
	// A batch crosses as one message: the first to arrive arrives whole and
	// in order, every field intact (a false Valid included).
	got := publishUntilDelivered(t, pub, TopicUPS, want, sub)
	if len(got) < len(want) {
		t.Fatalf("received %d samples, want a whole batch of %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.Device != w.Device || g.Power != w.Power || g.Valid != w.Valid ||
			g.Event != w.Event || !g.MeasuredAt.Equal(w.MeasuredAt) {
			t.Fatalf("sample %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestTransportTopicIsolation(t *testing.T) {
	srv, addr := startServer(t)
	subRack, err := RemoteSubscribe(addr, TopicRack)
	if err != nil {
		t.Fatal(err)
	}
	defer subRack.Close()
	subscribed(t, srv, TopicRack, 1)
	srv.Broker.PublishBatch(TopicUPS, []Sample{{Device: "UPS-1", Valid: true}})
	srv.Broker.PublishBatch(TopicRack, []Sample{{Device: "rack-1", Valid: true}})
	s, ok := takeOne(subRack, 2*time.Second)
	if !ok || s.Device != "rack-1" {
		t.Fatalf("got %q (ok %v) on rack topic", s.Device, ok)
	}
}

func TestTransportPollerOverTCP(t *testing.T) {
	_, addr := startServer(t)
	clk := clock.NewVirtual(time.Unix(0, 0))
	lm, err := NewLogicalMeter("UPS-1", StaticMeter{MeterName: "m", Value: 500 * power.KW})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewRemotePublisher(addr, nil)
	defer pub.Close()
	p := NewPoller("p1", clk, []SamplePublisher{pub},
		[]Target{{Meter: lm, Topic: TopicUPS}})
	sub, err := RemoteSubscribe(addr, TopicUPS)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Poll until delivery (handshake race again).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p.PollOnce()
		if s, ok := takeOne(sub, 20*time.Millisecond); ok {
			if s.Device != "UPS-1" || s.Power != 500*power.KW {
				t.Fatalf("sample %+v", s)
			}
			return
		}
	}
	t.Fatal("no sample over TCP")
}

func TestTransportPublisherSurvivesServerBounce(t *testing.T) {
	srv1, addr := startServer(t)
	pub := NewRemotePublisher(addr, nil)
	pub.RetryInterval = time.Millisecond
	defer pub.Close()
	pub.PublishBatch(TopicUPS, []Sample{{Device: "d", Valid: true}}) // connects
	srv1.Close()
	// Publishing into a dead server must not panic or block.
	for i := 0; i < 5; i++ {
		pub.PublishBatch(TopicUPS, []Sample{{Device: "d", Valid: true}})
	}
	// Bring a new server up on a new address; the old publisher is bound
	// to the old address, so this documents best-effort semantics: a
	// fresh publisher is needed for a relocated broker.
	_, addr2 := startServer(t)
	pub2 := NewRemotePublisher(addr2, nil)
	defer pub2.Close()
	sub, err := RemoteSubscribe(addr2, TopicUPS)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := publishUntilDelivered(t, pub2, TopicUPS, []Sample{{Device: "d2", Valid: true}}, sub); got[0].Device != "d2" {
		t.Fatalf("sample %+v", got[0])
	}
}

// TestTransportSubscriptionClosesOnServerClose: a remote subscription ends
// with its connection, and its consumer's Consume returns.
func TestTransportSubscriptionClosesOnServerClose(t *testing.T) {
	srv, addr := startServer(t)
	sub, err := RemoteSubscribe(addr, TopicUPS)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sub.Consume(make([]Sample, 8), func([]Sample) bool { return true })
	}()
	srv.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Consume did not return after server shutdown")
	}
}

// TestRemoteSubscriptionCountsDrops: a remote subscriber is the local ring
// queue, depth 1024. Once 1024 + k samples have reached one that nobody
// drains, it has dropped — and counted — the k oldest, and holds the newest
// 1024 in publish order.
func TestRemoteSubscriptionCountsDrops(t *testing.T) {
	const depth, k = 1024, 100
	srv, addr := startServer(t)
	sub, err := RemoteSubscribe(addr, TopicRack)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	subscribed(t, srv, TopicRack, 1)
	srv.Broker.mu.Lock()
	relay := srv.Broker.topics[TopicRack][0] // the server's queue toward sub
	srv.Broker.mu.Unlock()

	// Batches of 64, each handed to the connection before the next is
	// published, so the server's own queue never drops.
	batch := make([]Sample, 64)
	for sent := 0; sent < depth+k; sent += len(batch) {
		for j := range batch {
			batch[j] = Sample{Device: "rack-1", Valid: true, Event: uint64(sent + j + 1)}
		}
		srv.Broker.PublishBatch(TopicRack, batch[:min(len(batch), depth+k-sent)])
		waitFor(t, func() bool { return queued(relay) == 0 })
	}
	waitFor(t, func() bool { return sub.Dropped()+queued(sub) == depth+k })
	if relay.Dropped() != 0 {
		t.Fatalf("the server's queue dropped %d; the drops under test are the subscriber's", relay.Dropped())
	}
	if got := sub.Dropped(); got != k {
		t.Fatalf("Dropped() = %d, want %d", got, k)
	}
	buf := make([]Sample, 2*depth)
	n := sub.RecvBatch(buf)
	if n != depth {
		t.Fatalf("RecvBatch = %d samples, want the %d newest", n, depth)
	}
	for i, s := range buf[:n] {
		if want := uint64(k + i + 1); s.Event != want {
			t.Fatalf("sample %d is event %d, want %d", i, s.Event, want)
		}
	}
}

// queued reports how many samples sub holds.
func queued(sub *Subscription) int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.n
}

func TestTransportRetryThrottleUsesInjectedClock(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	pub := NewRemotePublisher("127.0.0.1:1", clk)
	defer pub.Close()
	one := []Sample{{}}
	pub.PublishBatch(TopicUPS, one) // dial fails, stamps lastRetry
	if got := pub.lastRetry; !got.Equal(clk.Now()) {
		t.Fatalf("lastRetry = %v, want %v", got, clk.Now())
	}
	first := pub.lastRetry
	pub.PublishBatch(TopicUPS, one) // within RetryInterval: throttled
	if !pub.lastRetry.Equal(first) {
		t.Fatal("retry was not throttled within RetryInterval")
	}
	clk.Advance(2 * pub.RetryInterval)
	pub.PublishBatch(TopicUPS, one) // past the interval: retried
	if pub.lastRetry.Equal(first) {
		t.Fatal("retry did not fire after the clock advanced")
	}
}

func TestTransportRejectsUnreachableAddress(t *testing.T) {
	if _, err := RemoteSubscribe("127.0.0.1:1", TopicUPS); err == nil {
		t.Fatal("expected dial error")
	}
	pub := NewRemotePublisher("127.0.0.1:1", nil)
	defer pub.Close()
	pub.PublishBatch(TopicUPS, []Sample{{}}) // must not panic
}
