package slo

import "time"

// burnWindow is one objective's bad indicator over its two burn-rate
// windows: a ring of the audit ticks still inside the longer window, and for
// each window the number of ticks and of bad ticks in [now−width, now]. Both
// windows end at the newest tick, so each is the newest n ticks of the ring
// and a tick costs a push, the pops that have fallen due, and two divisions. The counts
// are integers, so the fractions are exact — the value a scan of every
// (time, bad) pair in the window divides out, to the bit.
//
// Ticks must arrive in non-decreasing time order (see Auditor.Tick).
type burnWindow struct {
	ring       []burnTick
	next       int // the slot the next tick lands in
	fast, slow burnTail
}

type burnTick struct {
	at  int64 // UnixNano
	bad bool
}

// burnTail is the newest n ticks of the ring: those no older than width.
type burnTail struct {
	width  int64 // nanoseconds
	n, bad int
}

// newBurnWindow sizes the ring for one tick per interval across the longer
// window, both ends included.
func newBurnWindow(fast, slow, interval time.Duration) burnWindow {
	return burnWindow{
		ring: make([]burnTick, int(max(fast, slow)/interval)+1),
		fast: burnTail{width: int64(fast)},
		slow: burnTail{width: int64(slow)},
	}
}

// observe records the tick at now and returns the bad-tick fraction of the
// fast and of the slow window ending at it.
//
//flex:hotpath
func (w *burnWindow) observe(now time.Time, bad bool) (fast, slow float64) {
	at := now.UnixNano()
	w.expire(&w.fast, at)
	w.expire(&w.slow, at)
	if max(w.fast.n, w.slow.n) == len(w.ring) {
		w.grow()
	}
	w.ring[w.next] = burnTick{at: at, bad: bad}
	if w.next++; w.next == len(w.ring) {
		w.next = 0
	}
	w.fast.n++
	w.slow.n++
	if bad {
		w.fast.bad++
		w.slow.bad++
	}
	return float64(w.fast.bad) / float64(w.fast.n), float64(w.slow.bad) / float64(w.slow.n)
}

// expire drops from t the ticks older than its width at time at.
func (w *burnWindow) expire(t *burnTail, at int64) {
	for ; t.n > 0; t.n-- {
		i := w.next - t.n
		if i < 0 {
			i += len(w.ring)
		}
		if w.ring[i].at >= at-t.width {
			return
		}
		if w.ring[i].bad {
			t.bad--
		}
	}
}

// grow doubles a ring that one window fills, oldest tick at next: ticks are
// arriving faster than the interval it was sized for.
//
//flex:coldpath
func (w *burnWindow) grow() {
	ring := make([]burnTick, 2*len(w.ring))
	k := copy(ring, w.ring[w.next:])
	copy(ring[k:], w.ring[:w.next])
	w.ring, w.next = ring, len(w.ring)
}
