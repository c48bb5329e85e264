package telemetry

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"flex/internal/clock"
)

// SamplePublisher is anything samples can be published to: an in-process
// Broker or a RemotePublisher speaking the TCP transport. Pollers publish
// through this interface, so a pipeline can span machines — in production
// the pollers, pub/sub systems, and Flex controllers sit on separate
// fault domains (paper Figure 7).
type SamplePublisher interface {
	// PublishBatch delivers a batch of samples in one call, amortizing the
	// per-call overhead (one lock acquisition, one connection write) across
	// the batch.
	PublishBatch(topic string, batch []Sample)
}

var _ SamplePublisher = (*Broker)(nil)
var _ SamplePublisher = (*RemotePublisher)(nil)

// wire messages. A connection opens with a hello declaring its role, then
// carries one wireBatch per published batch, in either direction.
type wireHello struct {
	Role  string // "pub" or "sub"
	Topic string // for "sub": the topic to stream
}

type wireBatch struct {
	Topic   string
	Samples []Sample
}

// BrokerServer exposes a Broker over TCP: publishers stream batches in,
// subscribers stream batches out. One server per pub/sub fault domain.
type BrokerServer struct {
	Broker *Broker

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewBrokerServer wraps a broker.
func NewBrokerServer(b *Broker) *BrokerServer {
	return &BrokerServer{Broker: b, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close (or listener failure). It
// blocks; run it in a goroutine.
func (s *BrokerServer) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("telemetry: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			_ = conn.Close()
			return nil
		}
		go s.handle(conn)
	}
}

// track registers a connection for Close to tear down; it refuses one that
// Accept handed over while Close was already collecting them, which nothing
// would ever close.
func (s *BrokerServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *BrokerServer) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

func (s *BrokerServer) handle(conn net.Conn) {
	defer func() {
		s.untrack(conn)
		_ = conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	var hello wireHello
	if err := dec.Decode(&hello); err != nil {
		return
	}
	switch hello.Role {
	case "pub":
		for {
			var wb wireBatch
			if err := dec.Decode(&wb); err != nil {
				return
			}
			s.Broker.PublishBatch(wb.Topic, wb.Samples)
		}
	case "sub":
		sub := s.Broker.Subscribe(hello.Topic, 1024)
		defer sub.Close()
		enc := gob.NewEncoder(conn)
		sub.Consume(make([]Sample, 64), func(batch []Sample) bool {
			return enc.Encode(wireBatch{Topic: hello.Topic, Samples: batch}) == nil
		})
	}
}

// Close stops accepting and tears down every connection.
func (s *BrokerServer) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// RemotePublisher publishes samples to a BrokerServer over TCP. Publishing
// is best-effort with automatic reconnection: a down broker loses samples,
// exactly like a down in-process Broker — the duplicated pipeline path is
// what masks it.
type RemotePublisher struct {
	addr string
	clk  clock.Clock

	mu        sync.Mutex
	conn      net.Conn
	enc       *gob.Encoder
	lastRetry time.Time
	// RetryInterval throttles reconnection attempts (default 1s).
	RetryInterval time.Duration
}

// NewRemotePublisher creates a publisher for the server at addr. The
// connection is established lazily on the first PublishBatch. The retry
// throttle reads clk, so tests can drive reconnection deterministically
// with a clock.Virtual; a nil clk falls back to the wall clock.
func NewRemotePublisher(addr string, clk clock.Clock) *RemotePublisher {
	if clk == nil {
		clk = clock.Real{}
	}
	return &RemotePublisher{addr: addr, clk: clk, RetryInterval: time.Second}
}

// PublishBatch implements SamplePublisher: the batch goes out as one wire
// message under one lock acquisition, so concurrent publishers interleave
// between batches rather than between samples.
func (p *RemotePublisher) PublishBatch(topic string, batch []Sample) {
	if len(batch) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil && !p.reconnectLocked() {
		return
	}
	msg := wireBatch{Topic: topic, Samples: batch}
	if err := p.enc.Encode(msg); err != nil {
		_ = p.conn.Close()
		p.conn, p.enc = nil, nil
		// One immediate retry so a broker bounce loses at most the
		// in-flight batch.
		if p.reconnectLocked() {
			_ = p.enc.Encode(msg)
		}
	}
}

func (p *RemotePublisher) reconnectLocked() bool {
	now := p.clk.Now()
	if now.Sub(p.lastRetry) < p.RetryInterval {
		return false
	}
	p.lastRetry = now
	conn, err := net.DialTimeout("tcp", p.addr, time.Second)
	if err != nil {
		return false
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(wireHello{Role: "pub"}); err != nil {
		_ = conn.Close()
		return false
	}
	p.conn, p.enc = conn, enc
	return true
}

// Close tears the connection down.
func (p *RemotePublisher) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn, p.enc = nil, nil
	}
}

// RemoteSubscribe dials a BrokerServer and subscribes to topic. The samples
// land in a Subscription like a local one — a queue of depth 1024 that drops
// its oldest samples, and counts them, when the consumer lags — on a broker
// of its own that the connection publishes each batch into. The
// subscription closes when the connection drops, and closing it drops the
// connection.
func RemoteSubscribe(addr, topic string) (*Subscription, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, fmt.Errorf("telemetry: subscribe %s: %w", addr, err)
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(wireHello{Role: "sub", Topic: topic}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("telemetry: subscribe %s: %w", addr, err)
	}
	b := NewBroker(addr)
	sub := b.Subscribe(topic, 1024)
	sub.release = func() { _ = conn.Close() }
	go func() {
		defer sub.Close()
		dec := gob.NewDecoder(conn)
		for {
			// A fresh value each time: gob leaves the fields a message
			// omits (its zero ones) as they were.
			var wb wireBatch
			if err := dec.Decode(&wb); err != nil {
				return
			}
			b.PublishBatch(topic, wb.Samples)
		}
	}()
	return sub, nil
}
