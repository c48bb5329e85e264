package slo

import (
	"math/rand"
	"testing"
	"time"
)

// TestBurnWindowMatchesScan holds the ring to the definition: with every
// (time, bad) pair kept, the fraction of bad ticks among those in
// [now−W, now]. The ticks come at irregular, non-decreasing times — repeats
// of one instant, single intervals, gaps longer than the fast window and
// longer than both — and, for the first 1500, faster than the interval the
// ring was sized for, so it grows on the way.
func TestBurnWindowMatchesScan(t *testing.T) {
	const fast, slow, interval = time.Minute, 5 * time.Minute, 500 * time.Millisecond
	type tick struct {
		at  time.Time
		bad bool
	}
	scan := func(all []tick, now time.Time, width time.Duration) float64 {
		n, bad := 0, 0
		for _, p := range all {
			if !p.at.Before(now.Add(-width)) && !p.at.After(now) {
				n++
				if p.bad {
					bad++
				}
			}
		}
		return float64(bad) / float64(n)
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newBurnWindow(fast, slow, interval)
		sized := len(w.ring)
		var all []tick
		now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(1e9)))
		badRate := rng.Intn(100)
		for i := 0; i < 4000; i++ {
			switch k := rng.Intn(100); {
			case i < 1500: // a burst at four ticks and more per interval
				now = now.Add(time.Duration(rng.Int63n(int64(interval / 4))))
			case k < 10: // the same instant again
			case k < 70:
				now = now.Add(interval)
			case k < 90:
				now = now.Add(time.Duration(1 + rng.Int63n(int64(interval))))
			case k < 97:
				now = now.Add(fast + time.Duration(rng.Int63n(int64(slow-fast))))
			default:
				now = now.Add(slow + time.Duration(rng.Intn(2)))
			}
			if rng.Intn(500) == 0 {
				badRate = rng.Intn(100)
			}
			p := tick{at: now, bad: rng.Intn(100) < badRate}
			all = append(all, p)
			gotFast, gotSlow := w.observe(p.at, p.bad)
			if wantFast, wantSlow := scan(all, now, fast), scan(all, now, slow); gotFast != wantFast || gotSlow != wantSlow {
				t.Fatalf("seed %d tick %d at %v: fast %v slow %v, scan %v %v", seed, i, now, gotFast, gotSlow, wantFast, wantSlow)
			}
			if max(w.fast.n, w.slow.n) > len(w.ring) {
				t.Fatalf("seed %d tick %d: a ring of %d for windows of %d and %d ticks", seed, i, len(w.ring), w.fast.n, w.slow.n)
			}
		}
		if len(w.ring) == sized {
			t.Errorf("seed %d: the ring never grew; the sequence did not outrun its interval", seed)
		}
	}
}

// TestBurnWindowSizedOnce: ticks on the interval never grow the ring, from
// the first to well past the wrap.
func TestBurnWindowSizedOnce(t *testing.T) {
	w := newBurnWindow(time.Minute, 5*time.Minute, 500*time.Millisecond)
	sized := len(w.ring)
	now := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3*sized; i++ {
		now = now.Add(500 * time.Millisecond)
		w.observe(now, i%3 == 0)
	}
	if len(w.ring) != sized || w.slow.n != sized || w.fast.n != 121 {
		t.Fatalf("ring of %d (sized %d) holds %d slow and %d fast ticks, want %d and 121", len(w.ring), sized, w.slow.n, w.fast.n, sized)
	}
}
