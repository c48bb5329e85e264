package tsdb

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
)

// windowAvgRef is WindowAvg as it was first written, over copies of the
// ring and the tier — the reference the in-place reader must match bit
// for bit.
func windowAvgRef(s *Series, from, to time.Time) (avg float64, count uint64) {
	raw := s.Raw()
	if len(raw) > 0 && !raw[0].Time.After(from) {
		var sum float64
		for _, p := range raw {
			if p.Time.Before(from) || p.Time.After(to) {
				continue
			}
			sum += p.Value
			count++
		}
		if count > 0 {
			return sum / float64(count), count
		}
		return 0, 0
	}
	var sum float64
	for _, b := range s.Buckets(Tier10s) {
		if b.Start.Before(from) || b.Start.After(to) || b.Count == 0 {
			continue
		}
		sum += b.Sum
		count += b.Count
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

// TestWindowAvgMatchesReference appends random sequences — monotone and
// with out-of-order points, short of and far past the raw ring's capacity —
// and compares every kind of window after every few appends: inside the
// ring, starting before it (the 10s-tier fallback, open bucket included),
// empty, inverted, and with both edges exactly on a point or a bucket
// start.
func TestWindowAvgMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newSeries("diff", Options{RawCapacity: 8 + rng.Intn(40), TierCapacity: [numTiers]int{4 + rng.Intn(12), 4}}.withDefaults())
		disorder := 0.0
		if seed%2 == 0 {
			disorder = 0.1
		}
		var times []time.Time
		now := t0
		for i := 0; i < 400; i++ {
			now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond) // 0 repeats a timestamp
			at := now
			if rng.Float64() < disorder {
				at = now.Add(-time.Duration(rng.Intn(30000)) * time.Millisecond)
			}
			s.Append(at, rng.NormFloat64()*100)
			times = append(times, at)
			if i%3 != 0 {
				continue
			}
			pick := func() time.Time { // a point's own timestamp, a bucket edge, or anywhere
				switch at := times[rng.Intn(len(times))]; rng.Intn(3) {
				case 0:
					return at
				case 1:
					return at.Truncate(Tier10s)
				default:
					return at.Add(time.Duration(rng.Intn(20001)-10000) * time.Millisecond)
				}
			}
			for w := 0; w < 8; w++ {
				from, to := pick(), pick()
				if w > 0 && to.Before(from) {
					from, to = to, from
				}
				gotAvg, gotN := s.WindowAvg(from, to)
				wantAvg, wantN := windowAvgRef(s, from, to)
				if math.Float64bits(gotAvg) != math.Float64bits(wantAvg) || gotN != wantN {
					t.Fatalf("seed %d after %d appends, window [%v, %v]: WindowAvg = %v over %d, reference %v over %d",
						seed, i+1, from.Sub(t0), to.Sub(t0), gotAvg, gotN, wantAvg, wantN)
				}
			}
		}
	}
}

func TestWindowAvgAllocFree(t *testing.T) {
	s := NewStore(Options{}).Series("w")
	for i := 0; i < 3000; i++ { // wraps the raw ring: long windows fall back to the tier
		s.Append(t0.Add(time.Duration(i)*500*time.Millisecond), float64(i%2))
	}
	end := t0.Add(1500 * time.Second)
	for _, window := range []time.Duration{time.Minute, 20 * time.Minute} {
		if _, n := s.WindowAvg(end.Add(-window), end); n == 0 {
			t.Fatalf("%v window is empty", window)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.WindowAvg(end.Add(-window), end) }); allocs != 0 {
			t.Errorf("WindowAvg over %v: %v allocs/op, want 0", window, allocs)
		}
	}
}

// scrapeRegistry is a registry with one metric of every shape the sampler
// turns into series.
func scrapeRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Gauge("flex_demo_gauge", "").Set(1)
	reg.Counter("flex_demo_total", "").Inc()
	reg.Histogram("flex_demo_latency_seconds", "", nil).Observe(0.5)
	vec := reg.CounterVec("flex_demo_by_kind_total", "", "kind")
	vec.With("a").Inc()
	vec.With("b").Inc()
	return reg
}

func TestSamplerTickAllocFree(t *testing.T) {
	reg := scrapeRegistry()
	st := NewStore(Options{})
	smp := &Sampler{Registry: reg, Store: st}
	now := t0
	smp.Tick(now) // resolves the handles and creates the series
	series := st.Len()
	if allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(500 * time.Millisecond)
		smp.Tick(now)
	}); allocs != 0 {
		t.Errorf("steady-state Sampler.Tick: %v allocs/op, want 0", allocs)
	}
	if st.Len() != series {
		t.Fatalf("steady-state scrapes grew the store from %d to %d series", series, st.Len())
	}

	// A metric registered later is picked up by the next scrape.
	reg.CounterVec("flex_demo_by_kind_total", "", "kind").With("late").Add(7)
	smp.Tick(now.Add(time.Second))
	s, ok := st.Lookup("flex_demo_by_kind_total;kind=late")
	if !ok {
		t.Fatalf("late vec child was not scraped; have %v", st.Names())
	}
	if last, _ := s.Last(); last.Value != 7 {
		t.Fatalf("late vec child scraped as %v, want 7", last.Value)
	}
}

// TestSamplerTicksWhileRunning reads Ticks from the test goroutine while
// Run scrapes on a virtual clock; the race detector checks the counter.
func TestSamplerTicksWhileRunning(t *testing.T) {
	clk := clock.NewVirtual(t0)
	smp := &Sampler{Registry: scrapeRegistry(), Store: NewStore(Options{}), Clock: clk}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		smp.Run(ctx)
	}()
	for want := uint64(1); want <= 20; want++ {
		for clk.Pending() == 0 { // Run has not armed its timer yet
			runtime.Gosched()
		}
		clk.Advance(DefaultSampleInterval)
		for smp.Ticks() < want {
			runtime.Gosched()
		}
	}
	cancel()
	<-done
	if got := smp.Ticks(); got != 20 {
		t.Fatalf("Ticks = %d after 20 intervals", got)
	}
}
