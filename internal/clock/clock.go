// Package clock provides an injectable time source so that the Flex
// simulator, emulator, telemetry pipeline, and controllers can run against
// either wall-clock time (production-like runs) or a deterministic virtual
// clock (tests and fast experiments).
package clock

import (
	"sync"
	"time"
)

// Clock is the time source used by every time-dependent Flex component.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time after d.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the system wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// waiter is a goroutine blocked on a Virtual clock until its deadline.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// Virtual is a deterministic, manually advanced Clock. Goroutines that
// Sleep or After on a Virtual clock block until Advance moves the clock
// past their deadline. The zero value is not usable; call NewVirtual.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
}

// NewVirtual returns a Virtual clock starting at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock. It blocks until Advance moves the clock by at
// least d. A non-positive d returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	if d <= 0 {
		now := v.now
		v.mu.Unlock()
		ch <- now
		return ch
	}
	v.waiters = append(v.waiters, &waiter{deadline: v.now.Add(d), ch: ch})
	v.mu.Unlock()
	return ch
}

// Advance moves the clock forward by d, waking every waiter whose deadline
// has been reached. Waiters are woken in deadline order so that a chain of
// timers fires deterministically.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.now = v.now.Add(d)
	now := v.now
	var due, rest []*waiter
	for _, w := range v.waiters {
		if !w.deadline.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	v.waiters = rest
	v.mu.Unlock()
	// Wake outside the lock; channels are buffered so sends never block.
	for i := 0; i < len(due); i++ {
		min := i
		for j := i + 1; j < len(due); j++ {
			if due[j].deadline.Before(due[min].deadline) {
				min = j
			}
		}
		due[i], due[min] = due[min], due[i]
		due[i].ch <- now
	}
}
