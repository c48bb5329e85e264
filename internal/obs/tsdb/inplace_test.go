package tsdb

import (
	"testing"
	"time"

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
	series := len(st.byName)
	if allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(500 * time.Millisecond)
		smp.Tick(now)
	}); allocs != 0 {
		t.Errorf("steady-state Sampler.Tick: %v allocs/op, want 0", allocs)
	}
	if n := len(st.byName); n != series {
		t.Fatalf("steady-state scrapes grew the store from %d to %d series", series, n)
	}

	// A metric registered later is picked up by the next scrape.
	reg.CounterVec("flex_demo_by_kind_total", "", "kind").With("late").Add(7)
	smp.Tick(now.Add(time.Second))
	raw := st.Series("flex_demo_by_kind_total;kind=late").Raw()
	if len(raw) != 1 || raw[0].Value != 7 {
		t.Fatalf("late vec child scraped as %+v, want one point of 7", raw)
	}
}
