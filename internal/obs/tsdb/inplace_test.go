package tsdb

import (
	"context"
	"runtime"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
)

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
	series := len(st.Names())
	if allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(500 * time.Millisecond)
		smp.Tick(now)
	}); allocs != 0 {
		t.Errorf("steady-state Sampler.Tick: %v allocs/op, want 0", allocs)
	}
	if n := len(st.Names()); n != series {
		t.Fatalf("steady-state scrapes grew the store from %d to %d series", series, n)
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
