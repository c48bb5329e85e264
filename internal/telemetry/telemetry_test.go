package telemetry

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/power"
)

func t0() time.Time { return time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC) }

// takeOne is reading one sample off a subscription: the oldest one queued.
// ok is false when there was none.
func takeOne(sub *Subscription) (s Sample, ok bool) {
	var one [1]Sample
	n := sub.RecvBatch(one[:])
	return one[0], n == 1
}

func TestSimMeterReadsSource(t *testing.T) {
	m := NewSimMeter("m", func() power.Watts { return 1000 }, SimMeterConfig{})
	v, err := m.Read(t0())
	if err != nil || v != 1000 {
		t.Fatalf("Read = %v, %v", v, err)
	}
}

func TestSimMeterNoiseBounded(t *testing.T) {
	m := NewSimMeter("m", func() power.Watts { return 1000 }, SimMeterConfig{Noise: 0.01, Seed: 1})
	for i := 0; i < 100; i++ {
		v, err := m.Read(t0().Add(time.Duration(i) * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if v < 900 || v > 1100 {
			t.Fatalf("noisy reading %v implausible for 1kW ±1%%", v)
		}
	}
}

func TestSimMeterFailure(t *testing.T) {
	m := NewSimMeter("m", func() power.Watts { return 1000 }, SimMeterConfig{})
	m.SetFailed(true)
	if _, err := m.Read(t0()); !errors.Is(err, ErrMeterFailed) {
		t.Fatalf("err = %v, want ErrMeterFailed", err)
	}
	m.SetFailed(false)
	if _, err := m.Read(t0()); err != nil {
		t.Fatalf("recovered meter errored: %v", err)
	}
}

// TestSimMeterFailedReadAllocatesNothing: a failed meter returns the error
// built when it first failed, so reading it allocates nothing, and the error still
// names the meter and wraps ErrMeterFailed. A UPS consensus read with one
// meter failed allocates nothing either: its readings stay on the stack.
func TestSimMeterFailedReadAllocatesNothing(t *testing.T) {
	m := NewSimMeter("UPS-1/UPSMeter", func() power.Watts { return 1000 }, SimMeterConfig{})
	m.SetFailed(true)
	_, err := m.Read(t0())
	if !errors.Is(err, ErrMeterFailed) || err.Error() != "telemetry: meter failed: UPS-1/UPSMeter" {
		t.Fatalf("err = %v, want ErrMeterFailed naming the meter", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Read(t0()) }); allocs != 0 {
		t.Errorf("a failed read allocates %v times, want 0", allocs)
	}
	lm := NewUPSLogicalMeter("UPS-1", func() power.Watts { return power.MW }, func() power.Watts { return 60 * power.KW }, 1)
	lm.Meters()[0].(*SimMeter).SetFailed(true)
	if allocs := testing.AllocsPerRun(100, func() { lm.Read(t0()) }); allocs != 0 {
		t.Errorf("a consensus read over a failed meter allocates %v times, want 0", allocs)
	}
}

func TestSimMeterStaleness(t *testing.T) {
	var src atomic.Int64
	src.Store(1000)
	m := NewSimMeter("m", func() power.Watts { return power.Watts(src.Load()) },
		SimMeterConfig{StaleFor: 5 * time.Second})
	v1, _ := m.Read(t0())
	src.Store(2000)
	// Within the stale window the old value is returned (paper §VI: UPS
	// meters repeat values for up to 5 seconds).
	v2, _ := m.Read(t0().Add(2 * time.Second))
	if v2 != v1 {
		t.Fatalf("stale read = %v, want %v", v2, v1)
	}
	v3, _ := m.Read(t0().Add(6 * time.Second))
	if v3 != 2000 {
		t.Fatalf("post-stale read = %v, want 2000", v3)
	}
}

func TestSimMeterOffsetAndClamp(t *testing.T) {
	m := NewSimMeter("m", func() power.Watts { return 100 }, SimMeterConfig{})
	m.SetOffset(-500)
	v, _ := m.Read(t0())
	if v != 0 {
		t.Fatalf("negative reading should clamp to 0, got %v", v)
	}
}

func TestLogicalMeterMedianMasksOneBadMeter(t *testing.T) {
	lm, err := NewLogicalMeter("UPS-1",
		StaticMeter{MeterName: "a", Value: 1000},
		StaticMeter{MeterName: "b", Value: 1010},
		StaticMeter{MeterName: "c", Value: 5000}, // wildly misreading
	)
	if err != nil {
		t.Fatal(err)
	}
	v, err := lm.Read(t0())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1010 {
		t.Fatalf("median = %v, want 1010 (misreading masked)", v)
	}
}

func TestLogicalMeterQuorum(t *testing.T) {
	bad := StaticMeter{MeterName: "x", Err: ErrMeterFailed}
	lm, _ := NewLogicalMeter("UPS-1",
		StaticMeter{MeterName: "a", Value: 1000}, bad, bad)
	if _, err := lm.Read(t0()); err == nil {
		t.Fatal("1/3 readable should fail quorum 2")
	}
	lm2, _ := NewLogicalMeter("UPS-1",
		StaticMeter{MeterName: "a", Value: 1000},
		StaticMeter{MeterName: "b", Value: 1020}, bad)
	v, err := lm2.Read(t0())
	if err != nil {
		t.Fatal(err)
	}
	if v != 1010 { // even count → mean of middle two
		t.Fatalf("median of 2 = %v, want 1010", v)
	}
}

func TestNewLogicalMeterRequiresMeters(t *testing.T) {
	if _, err := NewLogicalMeter("x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestUPSLogicalMeterToleratesSingleFailure(t *testing.T) {
	src := func() power.Watts { return 1.2 * power.MW }
	mech := func() power.Watts { return 100 * power.KW }
	lm := NewUPSLogicalMeter("UPS-1", src, mech, 42)
	v, err := lm.Read(t0())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(v-1.2*power.MW)) > 0.03*1.2e6 {
		t.Fatalf("consensus = %v, want ≈1.2MW", v)
	}
	// Fail the direct UPS meter; consensus must still work and stay
	// accurate.
	lm.Meters()[0].(*SimMeter).SetFailed(true)
	v, err = lm.Read(t0().Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(v-1.2*power.MW)) > 0.05*1.2e6 {
		t.Fatalf("post-failure consensus = %v, want ≈1.2MW", v)
	}
	// Misreading on one remaining meter is the worst case for quorum 2
	// (mean of two); the error stays bounded by half the offset.
	lm.Meters()[1].(*SimMeter).SetOffset(0.2 * power.MW)
	v, err = lm.Read(t0().Add(20 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(v-1.3*power.MW)) > 0.06*1.3e6 {
		t.Fatalf("degraded consensus = %v, want ≈1.3MW", v)
	}
}

func TestBrokerFanoutAndDropOldest(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 2)
	for i := 0; i < 5; i++ {
		b.PublishBatch("t", []Sample{{Device: "d", Event: uint64(i)}})
	}
	if sub.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", sub.Dropped())
	}
	// The two newest survive.
	s1, _ := takeOne(sub)
	s2, _ := takeOne(sub)
	if s1.Event != 3 || s2.Event != 4 {
		t.Fatalf("kept events %d,%d, want 3,4", s1.Event, s2.Event)
	}
}

func TestBrokerDown(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 4)
	b.SetDown(true)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub); ok {
		t.Fatal("downed broker delivered a sample")
	}
	b.SetDown(false)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub); !ok {
		t.Fatal("recovered broker did not deliver")
	}
}

func TestPollerPublishesToAllBrokers(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b1, b2 := NewBroker("A"), NewBroker("B")
	lm, _ := NewLogicalMeter("UPS-1", StaticMeter{MeterName: "m", Value: 500})
	p := NewPoller("p1", clk, []*Broker{b1, b2},
		[]Target{{Meter: lm, Topic: TopicUPS}})
	p.Metrics = NewMetrics(obs.NewRegistry())
	s1 := b1.Subscribe(TopicUPS, 4)
	s2 := b2.Subscribe(TopicUPS, 4)
	p.PollOnce()
	for i, sub := range []*Subscription{s1, s2} {
		s, ok := takeOne(sub)
		if !ok {
			t.Fatalf("broker %d received nothing", i)
		}
		if s.Device != "UPS-1" || s.Power != 500 || !s.Valid {
			t.Fatalf("broker %d sample = %+v", i, s)
		}
	}
	if got := p.Metrics.Polls.Value(); got != 1 {
		t.Fatalf("Polls = %d", got)
	}
}

func TestPollerDownStopsPublishing(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b := NewBroker("A")
	lm, _ := NewLogicalMeter("UPS-1", StaticMeter{MeterName: "m", Value: 500})
	p := NewPoller("p1", clk, []*Broker{b}, []Target{{Meter: lm, Topic: TopicUPS}})
	sub := b.Subscribe(TopicUPS, 4)
	p.SetDown(true)
	p.PollOnce()
	if _, ok := takeOne(sub); ok {
		t.Fatal("downed poller published")
	}
}

func TestPollerMarksInvalidOnQuorumLoss(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b := NewBroker("A")
	bad := StaticMeter{MeterName: "x", Err: ErrMeterFailed}
	lm, _ := NewLogicalMeter("UPS-1", bad, bad, bad)
	p := NewPoller("p1", clk, []*Broker{b}, []Target{{Meter: lm, Topic: TopicUPS}})
	sub := b.Subscribe(TopicUPS, 4)
	p.PollOnce()
	s, ok := takeOne(sub)
	if !ok || s.Valid {
		t.Fatalf("sample = %+v %v, want one that is invalid without quorum", s, ok)
	}
}

func TestLatestPower(t *testing.T) {
	lp := NewLatestPower()
	for _, u := range []struct {
		s    Sample
		want bool
	}{
		{Sample{Device: "d", Power: 100, Valid: true, MeasuredAt: t0()}, true},
		{Sample{Device: "d", Power: 101, Valid: true, MeasuredAt: t0()}, false},                   // same measurement, refused
		{Sample{Device: "d", Power: 50, Valid: true, MeasuredAt: t0().Add(-time.Second)}, false},  // older, refused
		{Sample{Device: "d", Power: 999, Valid: false, MeasuredAt: t0().Add(time.Second)}, false}, // invalid, refused
	} {
		if got := lp.Update(u.s); got != u.want {
			t.Fatalf("Update(%+v) = %v, want %v", u.s, got, u.want)
		}
	}
	v, at, ok := lp.Get("d")
	if !ok || v != 100 || !at.Equal(t0()) {
		t.Fatalf("Get = %v %v %v", v, at, ok)
	}
	if _, _, ok := lp.Get("missing"); ok {
		t.Fatal("missing device should not exist")
	}
	age, ok := lp.Age("d", t0().Add(3*time.Second))
	if !ok || age != 3*time.Second {
		t.Fatalf("Age = %v %v", age, ok)
	}
	if _, ok := lp.Age("missing", t0()); ok {
		t.Fatal("missing device should have no age")
	}
	snap := lp.Snapshot()
	if len(snap) != 1 || snap["d"] != 100 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

// TestPipelineEndToEndRedundancy steps Figure 7 on the test goroutine, as
// the fleet does: a UPS consensus meter and a PSU/PDU rack meter pair, two
// pollers per topic publishing into two brokers, and every broker's
// subscription drained into one view per topic. With a poller and a broker
// down, the next poll still reaches the views.
func TestPipelineEndToEndRedundancy(t *testing.T) {
	clk := clock.NewVirtual(t0())
	truth := power.Watts(1.0 * power.MW)
	ups := NewUPSLogicalMeter("UPS-1", func() power.Watts { return truth }, func() power.Watts { return 0 }, 7)
	rackPower := func() power.Watts { return 10 * power.KW }
	rack, err := NewLogicalMeter("rack-1",
		NewSimMeter("rack-1/psu", rackPower, SimMeterConfig{Noise: 0.01, Seed: 17}),
		NewSimMeter("rack-1/pdu", rackPower, SimMeterConfig{Noise: 0.01, Seed: 18}))
	if err != nil {
		t.Fatal(err)
	}
	rack.Quorum = 1
	brokers := []*Broker{NewBroker("pubsub-A"), NewBroker("pubsub-B")}
	pubs := []*Broker{brokers[0], brokers[1]}
	var pollers []*Poller
	for _, name := range []string{"poller-A", "poller-B"} {
		pollers = append(pollers,
			NewPoller(name+"-ups", clk, pubs, []Target{{Meter: ups, Topic: TopicUPS}}),
			NewPoller(name+"-rack", clk, pubs, []Target{{Meter: rack, Topic: TopicRack}}))
	}
	upsView, rackView := NewLatestPower(), NewLatestPower()
	var subs []*Subscription
	var views []*LatestPower
	for _, b := range brokers {
		subs = append(subs, b.Subscribe(TopicUPS, 16), b.Subscribe(TopicRack, 16))
		views = append(views, upsView, rackView)
	}
	step := func() {
		for _, p := range pollers {
			p.PollOnce()
		}
		for i, sub := range subs {
			sub.Drain(func(run []Sample) { views[i].UpdateBatch(run, clk.Now()) })
		}
	}
	fresh := func(what string, view *LatestPower, device string, want power.Watts, tol float64) {
		t.Helper()
		v, at, ok := view.Get(device)
		if !ok || math.Abs(float64(v-want)) > tol*float64(want) || !at.Equal(clk.Now()) {
			t.Fatalf("%s: %s = %v measured %v (ok %v), want ≈%v measured %v", what, device, v, at, ok, want, clk.Now())
		}
	}

	step()
	fresh("first poll", upsView, "UPS-1", truth, 0.03)
	fresh("first poll", rackView, "rack-1", 10*power.KW, 0.03)

	// Kill one poller and one broker: the views must keep updating.
	pollers[0].SetDown(true)
	brokers[0].SetDown(true)
	clk.Advance(2 * time.Second)
	truth = 2.0 * power.MW
	step()
	fresh("degraded poll", upsView, "UPS-1", truth, 0.05)
	fresh("degraded poll", rackView, "rack-1", 10*power.KW, 0.03)
}
