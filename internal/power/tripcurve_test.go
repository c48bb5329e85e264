package power

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestNewTripCurveValidation(t *testing.T) {
	if _, err := NewTripCurve("empty", nil); err == nil {
		t.Error("expected error for empty curve")
	}
	if _, err := NewTripCurve("bad-frac", []TripPoint{{LoadFraction: 0.9, Tolerance: time.Second}}); err == nil {
		t.Error("expected error for fraction <= 1")
	}
	if _, err := NewTripCurve("bad-tol", []TripPoint{{LoadFraction: 1.2, Tolerance: 0}}); err == nil {
		t.Error("expected error for non-positive tolerance")
	}
	if _, err := NewTripCurve("non-monotone", []TripPoint{
		{LoadFraction: 1.1, Tolerance: time.Second},
		{LoadFraction: 1.2, Tolerance: 2 * time.Second},
	}); err == nil {
		t.Error("expected error for increasing tolerance")
	}
}

func TestEndOfLifeCurvePaperAnchor(t *testing.T) {
	// Paper §IV-A: at the worst-case failover load of 133%, the UPS
	// provides 10 seconds of tolerance (end of battery life).
	got := EndOfLifeTripCurve.Tolerance(4.0 / 3.0)
	if got != 10*time.Second {
		t.Fatalf("tolerance at 133%% = %v, want 10s", got)
	}
	if BeginOfLifeTripCurve.Tolerance(4.0/3.0) != 30*time.Second {
		t.Fatal("begin-of-life at 133% should be 30s")
	}
}

func TestToleranceBelowRatingNeverTrips(t *testing.T) {
	for _, f := range []float64{0, 0.5, 0.99, 1.0} {
		if got := EndOfLifeTripCurve.Tolerance(f); got < 24*time.Hour {
			t.Errorf("tolerance at %.2f = %v, want effectively infinite", f, got)
		}
	}
}

func TestToleranceMonotoneDecreasing(t *testing.T) {
	f := func(a, b uint16) bool {
		fa := 1.0 + float64(a%1000)/1000.0 // 1.0 .. 2.0
		fb := 1.0 + float64(b%1000)/1000.0
		if fa > fb {
			fa, fb = fb, fa
		}
		return EndOfLifeTripCurve.Tolerance(fa) >= EndOfLifeTripCurve.Tolerance(fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestToleranceClampsBeyondLastPoint(t *testing.T) {
	last := EndOfLifeTripCurve.Points()[len(EndOfLifeTripCurve.Points())-1]
	if got := EndOfLifeTripCurve.Tolerance(3.0); got != last.Tolerance {
		t.Fatalf("tolerance beyond curve = %v, want %v", got, last.Tolerance)
	}
}

func TestToleranceInterpolatesBetweenPoints(t *testing.T) {
	// Between 1.20 (28s) and 1.333 (10s): tolerance must be inside (10,28).
	got := EndOfLifeTripCurve.Tolerance(1.27)
	if got <= 10*time.Second || got >= 28*time.Second {
		t.Fatalf("interpolated tolerance = %v, want in (10s, 28s)", got)
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	ps := EndOfLifeTripCurve.Points()
	ps[0].Tolerance = 0
	if EndOfLifeTripCurve.Points()[0].Tolerance == 0 {
		t.Fatal("Points exposed internal state")
	}
}

func TestFlexLatencyBudgetWithinWorstCaseTolerance(t *testing.T) {
	// The 10-second Flex budget must not exceed the end-of-life tolerance
	// at the worst-case 133% failover load — this is the paper's design
	// equation for the end-to-end deadline.
	tol := EndOfLifeTripCurve.Tolerance(Redundancy{X: 4, Y: 3}.WorstCaseFailoverFraction())
	if FlexLatencyBudget > tol {
		t.Fatalf("latency budget %v exceeds worst-case tolerance %v", FlexLatencyBudget, tol)
	}
}

func TestSimulateCascadeNoActionCausesOutage(t *testing.T) {
	topo := fourN3Room(t, 1)
	// Full allocation, 100% utilization: failover pushes survivors to 133%.
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 9.6 * MW / 6
	}
	out := topo.SimulateCascade(load, 0, EndOfLifeTripCurve, time.Hour)
	if !out.Outage {
		t.Fatal("expected cascading outage without corrective action")
	}
	if len(out.Tripped) < 2 {
		t.Fatalf("expected at least one overload trip, got %v", out.Tripped)
	}
	if out.TimeToOutage <= 0 || out.TimeToOutage > time.Hour {
		t.Fatalf("TimeToOutage = %v", out.TimeToOutage)
	}
}

func TestSimulateCascadeStableAfterShaving(t *testing.T) {
	topo := fourN3Room(t, 1)
	// Conventional allocation: failover keeps survivors at capacity.
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 7.2 * MW / 6
	}
	out := topo.SimulateCascade(load, 0, EndOfLifeTripCurve, time.Hour)
	if out.Outage {
		t.Fatal("conventional allocation must not cascade")
	}
	if len(out.Tripped) != 1 {
		t.Fatalf("Tripped = %v, want only the initial failure", out.Tripped)
	}
}

func TestSimulateCascadeHorizonBoundsTrips(t *testing.T) {
	topo := fourN3Room(t, 1)
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 9.6 * MW / 6
	}
	// Survivors sit at 133% → first trip at 10s. A 5s horizon means the
	// corrective action (modeled as "we stop simulating") arrives first.
	out := topo.SimulateCascade(load, 0, EndOfLifeTripCurve, 5*time.Second)
	if out.Outage || len(out.Tripped) != 1 {
		t.Fatalf("cascade within 5s horizon: %+v", out)
	}
}

// TestTripStateMatchesIntegral advances a TripState tick by tick through
// piecewise-constant loads and holds the tick it trips on to the closed
// form of ∫ dt / Tolerance(load(t)) = 1: the first tick whose end passes
// the closed-form instant. No case puts that instant on a tick boundary.
func TestTripStateMatchesIntegral(t *testing.T) {
	tol := func(f float64) float64 { return float64(EndOfLifeTripCurve.Tolerance(f)) }
	type segment struct {
		load float64
		dur  time.Duration
	}
	// oscillate alternates one tick at over with one tick at under, n times.
	oscillate := func(over, under float64, tick time.Duration, n int) []segment {
		var segs []segment
		for range n {
			segs = append(segs, segment{over, tick}, segment{under, tick})
		}
		return segs
	}
	const oscTick = 500 * time.Millisecond
	for _, tc := range []struct {
		name string
		tick time.Duration
		segs []segment
		want float64 // the closed-form trip instant, ns
	}{
		{
			// 2.9s of the 3s at 150% leave a thirtieth of 140%'s 6.18s:
			// 3.106s, where a clock compared with the present load's
			// tolerance says 6.18s.
			name: "falling load",
			tick: 10 * time.Millisecond,
			segs: []segment{{1.5, 2900 * time.Millisecond}, {1.4, time.Minute}},
			want: 2.9e9 + (1-2.9e9/tol(1.5))*tol(1.4),
		},
		{
			// One 100ms tick at 95% holds what 4s at 140% consumed.
			name: "one tick under rating",
			tick: 100 * time.Millisecond,
			segs: []segment{{1.4, 4 * time.Second}, {0.95, 100 * time.Millisecond}, {1.4, time.Minute}},
			want: 4.1e9 + (1-4e9/tol(1.4))*tol(1.4),
		},
		{
			// Every other tick at 112%: the over-rating ticks add up to
			// 112%'s tolerance, and each one before the last is followed
			// by a tick under.
			name: "oscillating around rating",
			tick: oscTick,
			segs: oscillate(1.12, 0.97, oscTick, 1000),
			want: tol(1.12) + math.Floor(tol(1.12)/float64(oscTick))*float64(oscTick),
		},
		{
			name: "constant 133%",
			tick: 300 * time.Millisecond,
			segs: []segment{{4.0 / 3.0, time.Minute}},
			want: tol(4.0 / 3.0),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tick := float64(tc.tick)
			if frac := tc.want/tick - math.Floor(tc.want/tick); frac < 1e-6 || frac > 1-1e-6 {
				t.Fatalf("closed form %v sits on a tick boundary", time.Duration(tc.want))
			}
			var s TripState
			var at time.Duration
			for _, seg := range tc.segs {
				for end := at + seg.dur; at < end; {
					at += tc.tick
					if s.Advance(EndOfLifeTripCurve, tc.tick, seg.load) {
						if lo := float64(at) - tick; float64(at) < tc.want || lo >= tc.want {
							t.Fatalf("tripped on the tick ending %v, want the one whose end first passes %v", at, time.Duration(tc.want))
						}
						return
					}
				}
			}
			t.Fatalf("never tripped in %v, want a trip at %v", at, time.Duration(tc.want))
		})
	}

	// Left is the unconsumed share of the present load's tolerance.
	var s TripState
	s.Advance(EndOfLifeTripCurve, 2900*time.Millisecond, 1.5)
	if got, want := s.Left(EndOfLifeTripCurve, 1.4), (1-2.9e9/tol(1.5))*tol(1.4); math.Abs(float64(got)-want) > 1 {
		t.Errorf("Left at 140%% after 2.9s at 150%% = %v, want %v", got, time.Duration(want))
	}
	before := s
	if s.Advance(EndOfLifeTripCurve, time.Hour, 0.99); s != before {
		t.Error("an hour under rating moved the state, want it held")
	}
}

// TestSimulateCascadeCarriesConsumedTolerance: a survivor already
// overloaded before the first trip trips at (1 − consumed) × Tolerance of
// its new load, not a fresh tolerance. UPS 0 fails; UPS 1 sits at 150%
// and UPS 2 at 135% of rating, UPS 3 under it. UPS 1 trips at 9s
// (begin-of-life), having no load shared with UPS 0; UPS 2 then takes
// the whole of their shared pair, and its trip darkens the pair it shares
// with UPS 0.
func TestSimulateCascadeCarriesConsumedTolerance(t *testing.T) {
	topo := fourN3Room(t, 1)
	c := topo.UPSes[0].Capacity
	load := NewPairLoad(topo)
	for _, p := range topo.Pairs {
		switch [2]UPSID{p.UPSes[0], p.UPSes[1]} {
		case [2]UPSID{0, 2}:
			load[p.ID] = 0.3 * c
		case [2]UPSID{1, 2}:
			load[p.ID] = 2.1 * c
		case [2]UPSID{1, 3}:
			load[p.ID] = 0.9 * c
		}
	}
	curve := BeginOfLifeTripCurve
	tol := func(u UPSID, out UPSSet) float64 {
		loads, _ := topo.LoadFlow(load, out)
		return float64(curve.Tolerance(float64(loads[u] / c)))
	}
	first := tol(1, SetOf(0))
	consumed := first / tol(2, SetOf(0))
	want := first + (1-consumed)*tol(2, SetOf(0, 1))

	out := topo.SimulateCascade(load, 0, curve, time.Hour)
	if !out.Outage || !slices.Equal(out.Tripped, []UPSID{0, 1, 2}) {
		t.Fatalf("cascade %+v, want UPS 1 then UPS 2 to trip into an outage", out)
	}
	if got := float64(out.TimeToOutage); math.Abs(got-want) > 1e3 {
		t.Errorf("outage at %v, want %v: UPS 2 keeps the %.3f of its tolerance it consumed before UPS 1 tripped",
			out.TimeToOutage, time.Duration(want), consumed)
	}
	if fresh := first + tol(2, SetOf(0, 1)); want >= fresh {
		t.Errorf("closed form %v is not earlier than a fresh tolerance's %v", time.Duration(want), time.Duration(fresh))
	}
}
