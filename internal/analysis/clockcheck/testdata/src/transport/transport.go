// Fixture reproducing a reconnect throttle that reads the wall clock
// directly instead of the injected clock — the regression clockcheck exists
// to catch.
package transport

import (
	"net"
	"sync"
	"time"
)

type RemotePublisher struct {
	addr string

	mu            sync.Mutex
	conn          net.Conn
	lastRetry     time.Time
	RetryInterval time.Duration
}

func (p *RemotePublisher) reconnectLocked() bool {
	now := time.Now() // want `direct time\.Now call`
	if now.Sub(p.lastRetry) < p.RetryInterval {
		return false
	}
	p.lastRetry = now
	conn, err := net.DialTimeout("tcp", p.addr, time.Second)
	if err != nil {
		return false
	}
	p.conn = conn
	return true
}
