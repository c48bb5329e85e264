package power

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// TripPoint is one point on a UPS overload tolerance curve: at LoadFraction
// of rated capacity the UPS can sustain the overload for Tolerance before
// tripping.
type TripPoint struct {
	LoadFraction float64 // load / rated capacity, > 1 for overload
	Tolerance    time.Duration
}

// TripCurve is a UPS overload tolerance curve (paper Figure 6). Tolerance
// is interpolated log-linearly between points; loads at or below the rated
// capacity (fraction <= 1 beyond the first point) never trip.
type TripCurve struct {
	points []TripPoint // sorted by LoadFraction ascending, all > 1
}

// NewTripCurve builds a curve from points; name labels its errors. Points
// must have LoadFraction > 1 and strictly decreasing tolerance with
// increasing load.
func NewTripCurve(name string, points []TripPoint) (TripCurve, error) {
	if len(points) == 0 {
		return TripCurve{}, fmt.Errorf("power: trip curve %q needs at least one point", name)
	}
	ps := make([]TripPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].LoadFraction < ps[j].LoadFraction })
	for i, p := range ps {
		if p.LoadFraction <= 1 {
			return TripCurve{}, fmt.Errorf("power: trip point %d has load fraction %.3f <= 1", i, p.LoadFraction)
		}
		if p.Tolerance <= 0 {
			return TripCurve{}, fmt.Errorf("power: trip point %d has non-positive tolerance", i)
		}
		if i > 0 && p.Tolerance >= ps[i-1].Tolerance {
			return TripCurve{}, fmt.Errorf("power: trip curve %q tolerance must decrease with load", name)
		}
	}
	return TripCurve{points: ps}, nil
}

// Tolerance returns how long the UPS sustains a load of loadFraction × its
// rated capacity before tripping. Loads at or below rating return a very
// large duration (no trip). Between curve points the tolerance is
// interpolated linearly in log(time); beyond the last point it clamps to
// the last point's tolerance.
func (c TripCurve) Tolerance(loadFraction float64) time.Duration {
	const never = 100 * 365 * 24 * time.Hour
	if len(c.points) == 0 || loadFraction <= 1 {
		return never
	}
	first := c.points[0]
	if loadFraction <= first.LoadFraction {
		// Interpolate from "infinite" at 1.0 down to the first point using
		// the same log-linear rule anchored at 20× the first tolerance.
		anchor := TripPoint{LoadFraction: 1.0, Tolerance: first.Tolerance * 20}
		return interpLog(anchor, first, loadFraction)
	}
	for i := 1; i < len(c.points); i++ {
		if loadFraction <= c.points[i].LoadFraction {
			return interpLog(c.points[i-1], c.points[i], loadFraction)
		}
	}
	return c.points[len(c.points)-1].Tolerance
}

// TripState is one UPS's position on a trip curve: the share of its
// overload tolerance consumed so far, ∫ dt / Tolerance(load(t)), which trips
// the UPS once it exceeds 1 (Miner's rule: a breaker integrates its I²t the
// same way). It builds up while the UPS is over its rating and holds while
// it is under; only leaving service resets it, because a recovered UPS
// comes back fresh. The zero value is a fresh UPS.
type TripState struct {
	consumed float64
}

// Advance moves s on by dt at loadFraction × rated capacity and reports
// whether the UPS has tripped.
//
//flex:hotpath
func (s *TripState) Advance(c TripCurve, dt time.Duration, loadFraction float64) (tripped bool) {
	if loadFraction > 1 {
		s.consumed += float64(dt) / float64(c.Tolerance(loadFraction))
	}
	return s.consumed > 1
}

// Left returns how long the UPS can sit at loadFraction × rated capacity
// before it trips: the unconsumed share of that load's tolerance.
func (s TripState) Left(c TripCurve, loadFraction float64) time.Duration {
	return time.Duration((1 - s.consumed) * float64(c.Tolerance(loadFraction)))
}

func interpLog(a, b TripPoint, f float64) time.Duration {
	t := (f - a.LoadFraction) / (b.LoadFraction - a.LoadFraction)
	la := math.Log(float64(a.Tolerance))
	lb := math.Log(float64(b.Tolerance))
	return time.Duration(math.Exp(la + t*(lb-la)))
}

// The paper's UPSes provide 10 seconds of tolerance at the worst-case
// failover load of 133% at end of battery life (Figure 6 and §IV-A).
// Begin-of-life batteries tolerate roughly 3× longer.
var (
	// EndOfLifeTripCurve is the conservative curve Flex designs against.
	EndOfLifeTripCurve = mustCurve("end-of-life", []TripPoint{
		{LoadFraction: 1.05, Tolerance: 150 * time.Second},
		{LoadFraction: 1.10, Tolerance: 75 * time.Second},
		{LoadFraction: 1.20, Tolerance: 28 * time.Second},
		{LoadFraction: 4.0 / 3.0, Tolerance: 10 * time.Second},
		{LoadFraction: 1.50, Tolerance: 3 * time.Second},
	})
	// BeginOfLifeTripCurve reflects fresh batteries.
	//
	//flex:keep EXPERIMENTS.md "Figure 6" row "Begin-of-life at 133%" is read off it; BenchmarkFigure6_UPSToleranceCurve prints it
	BeginOfLifeTripCurve = mustCurve("begin-of-life", []TripPoint{
		{LoadFraction: 1.05, Tolerance: 450 * time.Second},
		{LoadFraction: 1.10, Tolerance: 225 * time.Second},
		{LoadFraction: 1.20, Tolerance: 84 * time.Second},
		{LoadFraction: 4.0 / 3.0, Tolerance: 30 * time.Second},
		{LoadFraction: 1.50, Tolerance: 9 * time.Second},
	})
)

// FlexLatencyBudget is the end-to-end deadline the paper enforces on
// Flex-Online — failover detection, telemetry collection, and controller
// actions must complete within this window (paper §IV-A).
const FlexLatencyBudget = 10 * time.Second

func mustCurve(name string, pts []TripPoint) TripCurve {
	c, err := NewTripCurve(name, pts)
	if err != nil {
		panic(err)
	}
	return c
}
