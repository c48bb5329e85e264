package slo

import "time"

// burnWindow is one objective's bad indicator over its two burn-rate
// windows: a ring of the audit ticks still inside the longer window, and for
// each window the number of ticks and of bad ticks in [now−width, now]. Both
// windows end at the newest tick, so each is a suffix of the ring and a tick
// costs a push, the pops that have fallen due, and two divisions. The counts
// are integers, so the fractions are exact — the value a scan of every
// (time, bad) pair in the window divides out, to the bit.
//
// Ticks must arrive in non-decreasing time order (see Auditor.Tick).
type burnWindow struct {
	ring       []burnTick
	head, n    int // the live ticks are ring[head], ring[head+1], … (n of them, wrapping)
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
	// Whatever neither window reaches any more leaves the ring.
	keep := max(w.fast.n, w.slow.n)
	w.head = w.index(w.n - keep)
	w.n = keep
	if w.n == len(w.ring) {
		w.grow()
	}
	w.ring[w.index(w.n)] = burnTick{at: at, bad: bad}
	w.n++
	w.fast.push(bad)
	w.slow.push(bad)
	return float64(w.fast.bad) / float64(w.fast.n), float64(w.slow.bad) / float64(w.slow.n)
}

func (t *burnTail) push(bad bool) {
	t.n++
	if bad {
		t.bad++
	}
}

// expire drops from t the ticks older than its width at time at.
func (w *burnWindow) expire(t *burnTail, at int64) {
	for t.n > 0 {
		oldest := &w.ring[w.index(w.n-t.n)]
		if oldest.at >= at-t.width {
			return
		}
		if oldest.bad {
			t.bad--
		}
		t.n--
	}
}

// index is the ring slot of the k-th oldest live tick, k in [0, len(ring)].
func (w *burnWindow) index(k int) int {
	if i := w.head + k; i < len(w.ring) {
		return i
	}
	return w.head + k - len(w.ring)
}

// grow doubles a full ring: ticks are arriving faster than the interval it
// was sized for.
//
//flex:coldpath
func (w *burnWindow) grow() {
	ring := make([]burnTick, 2*len(w.ring))
	k := copy(ring, w.ring[w.head:])
	copy(ring[k:], w.ring[:w.head])
	w.ring, w.head = ring, 0
}
