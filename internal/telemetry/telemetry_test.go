package telemetry

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/power"
)

func t0() time.Time { return time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC) }

// takeOne is reading one sample off a subscription: the oldest one queued,
// or, when the queue is empty and wait > 0, the first to arrive within wait
// of the wake-up. ok is false when there was none.
func takeOne(sub *Subscription, wait time.Duration) (s Sample, ok bool) {
	var one [1]Sample
	n := sub.RecvBatch(one[:])
	if n == 0 && wait > 0 {
		select {
		case <-sub.ready:
		case <-time.After(wait):
		}
		n = sub.RecvBatch(one[:])
	}
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
	s1, _ := takeOne(sub, 0)
	s2, _ := takeOne(sub, 0)
	if s1.Event != 3 || s2.Event != 4 {
		t.Fatalf("kept events %d,%d, want 3,4", s1.Event, s2.Event)
	}
	sub.Close()
	// Publishing after close must not panic.
	b.PublishBatch("t", []Sample{{Device: "d"}})
}

func TestBrokerDown(t *testing.T) {
	b := NewBroker("A")
	sub := b.Subscribe("t", 4)
	b.SetDown(true)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub, 0); ok {
		t.Fatal("downed broker delivered a sample")
	}
	b.SetDown(false)
	b.PublishBatch("t", []Sample{{Device: "d"}})
	if _, ok := takeOne(sub, 0); !ok {
		t.Fatal("recovered broker did not deliver")
	}
}

func TestPollerPublishesToAllBrokers(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b1, b2 := NewBroker("A"), NewBroker("B")
	lm, _ := NewLogicalMeter("UPS-1", StaticMeter{MeterName: "m", Value: 500})
	p := NewPoller("p1", clk, []SamplePublisher{b1, b2},
		[]Target{{Meter: lm, Topic: TopicUPS}})
	s1 := b1.Subscribe(TopicUPS, 4)
	s2 := b2.Subscribe(TopicUPS, 4)
	p.PollOnce()
	for i, sub := range []*Subscription{s1, s2} {
		s, ok := takeOne(sub, 0)
		if !ok {
			t.Fatalf("broker %d received nothing", i)
		}
		if s.Device != "UPS-1" || s.Power != 500 || !s.Valid {
			t.Fatalf("broker %d sample = %+v", i, s)
		}
	}
	if p.Polls() != 1 {
		t.Fatalf("Polls = %d", p.Polls())
	}
}

func TestPollerDownStopsPublishing(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b := NewBroker("A")
	lm, _ := NewLogicalMeter("UPS-1", StaticMeter{MeterName: "m", Value: 500})
	p := NewPoller("p1", clk, []SamplePublisher{b}, []Target{{Meter: lm, Topic: TopicUPS}})
	sub := b.Subscribe(TopicUPS, 4)
	p.SetDown(true)
	p.PollOnce()
	if _, ok := takeOne(sub, 0); ok {
		t.Fatal("downed poller published")
	}
}

func TestPollerMarksInvalidOnQuorumLoss(t *testing.T) {
	clk := clock.NewVirtual(t0())
	b := NewBroker("A")
	bad := StaticMeter{MeterName: "x", Err: ErrMeterFailed}
	lm, _ := NewLogicalMeter("UPS-1", bad, bad, bad)
	p := NewPoller("p1", clk, []SamplePublisher{b}, []Target{{Meter: lm, Topic: TopicUPS}})
	sub := b.Subscribe(TopicUPS, 4)
	p.PollOnce()
	s, ok := takeOne(sub, 0)
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

func TestPipelineEndToEndRedundancy(t *testing.T) {
	clk := clock.NewVirtual(t0())
	truth := power.Watts(1.0 * power.MW)
	pl := NewPipeline(PipelineConfig{
		Clock:      clk,
		UPSSources: map[string]PowerSource{"UPS-1": func() power.Watts { return truth }},
		RackSources: map[string]PowerSource{
			"rack-1": func() power.Watts { return 10 * power.KW },
		},
		Seed: 7,
	})
	view := NewLatestPower()
	cancel := pl.SubscribeAll(TopicUPS, view)
	defer cancel()
	rackView := NewLatestPower()
	cancelR := pl.SubscribeAll(TopicRack, rackView)
	defer cancelR()

	pl.PollOnce()
	waitFor(t, func() bool { _, _, ok := view.Get("UPS-1"); return ok })
	v, _, _ := view.Get("UPS-1")
	if math.Abs(float64(v-truth)) > 0.03*float64(truth) {
		t.Fatalf("UPS view = %v, want ≈1MW", v)
	}
	waitFor(t, func() bool { _, _, ok := rackView.Get("rack-1"); return ok })

	// Kill one poller and one broker: the view must keep updating.
	pl.PollerSet[0].SetDown(true)
	pl.BrokerSet[0].SetDown(true)
	clk.Advance(2 * time.Second)
	truth = 2.0 * power.MW
	pl.PollOnce()
	waitFor(t, func() bool {
		v, _, _ := view.Get("UPS-1")
		return math.Abs(float64(v-2.0*power.MW)) < 0.05*2e6
	})
}

// waitFor polls cond for up to 2s of real time (goroutine scheduling is
// involved even with a virtual clock).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestEWMAEstimatorSmoothing(t *testing.T) {
	e := NewEWMAEstimator(0.5)
	base := t0()
	for i, v := range []power.Watts{100, 200, 200, 200} {
		e.Update(Sample{Device: "d", Power: v, Valid: true, MeasuredAt: base.Add(time.Duration(i) * time.Second)})
	}
	m, ok := e.Estimate("d")
	if !ok {
		t.Fatal("no estimate")
	}
	// EWMA(0.5) over 100,200,200,200 = 187.5.
	if math.Abs(float64(m)-187.5) > 1e-9 {
		t.Fatalf("estimate = %v, want 187.5", m)
	}
	// Lower bound below mean, upper above.
	lo, _ := e.Bound("d", -1)
	hi, _ := e.Bound("d", 1)
	if !(lo < m && m < hi) {
		t.Fatalf("bounds %v %v around %v", lo, hi, m)
	}
}

func TestEWMAEstimatorIgnoresInvalidAndStale(t *testing.T) {
	e := NewEWMAEstimator(0.5)
	e.Update(Sample{Device: "d", Power: 100, Valid: true, MeasuredAt: t0()})
	e.Update(Sample{Device: "d", Power: 999, Valid: false, MeasuredAt: t0().Add(time.Second)})
	e.Update(Sample{Device: "d", Power: 999, Valid: true, MeasuredAt: t0().Add(-time.Second)})
	m, _ := e.Estimate("d")
	if m != 100 {
		t.Fatalf("estimate = %v, want 100", m)
	}
	if _, ok := e.Estimate("missing"); ok {
		t.Fatal("missing device should not estimate")
	}
	if _, ok := e.Bound("missing", 1); ok {
		t.Fatal("missing device should not bound")
	}
}

func TestEWMAEstimatorBoundSnapshotClamps(t *testing.T) {
	e := NewEWMAEstimator(1)
	e.Update(Sample{Device: "a", Power: 10, Valid: true, MeasuredAt: t0()})
	e.Update(Sample{Device: "a", Power: 100, Valid: true, MeasuredAt: t0().Add(time.Second)})
	snap := e.BoundSnapshot(-10)
	if snap["a"] != 0 {
		t.Fatalf("lower bound should clamp at 0, got %v", snap["a"])
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot size %d", len(snap))
	}
}

func TestEWMAEstimatorBadAlphaDefaults(t *testing.T) {
	e := NewEWMAEstimator(-3)
	e.Update(Sample{Device: "d", Power: 100, Valid: true, MeasuredAt: t0()})
	if m, ok := e.Estimate("d"); !ok || m != 100 {
		t.Fatalf("estimate = %v %v", m, ok)
	}
}
