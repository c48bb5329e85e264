package emu

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// TestEventsFireOffGrid stages the failure and the recovery at times a
// 700ms tick does not divide: both must still happen, once, on the first
// tick past them, with the latencies counted from the tick that failed
// the UPS.
func TestEventsFireOffGrid(t *testing.T) {
	const tick = 700 * time.Millisecond
	rec := recorder.New(1 << 18)
	res, err := Run(context.Background(), Config{
		Tick: tick, FailAt: 150 * time.Second, RecoverAt: 270 * time.Second, Duration: 360 * time.Second,
		FailUPS: 2, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []recorder.Type{recorder.TypeUPSFail, recorder.TypeUPSRecover} {
		if n := len(eventsOf(rec, typ, "")); n != 1 {
			t.Errorf("%d %v events, want 1", n, typ)
		}
	}
	dark := 0
	for _, pt := range res.Series {
		if pt.UPSPower[2] == 0 {
			dark++
		}
	}
	// Out from the first tick at or past 150s (150.5s) to the last before 270.2s.
	if want := 171; dark != want {
		t.Errorf("UPS 2 carried nothing on %d ticks, want %d", dark, want)
	}
	if res.DetectionLatency < 0 || res.DetectionLatency%tick != 0 {
		t.Errorf("detection latency %v, want a whole number of ticks after the failure", res.DetectionLatency)
	}
	if res.ShaveLatency <= 0 || res.ShaveLatency > power.FlexLatencyBudget || res.ShaveLatency%tick != 0 {
		t.Errorf("shave latency %v, want whole ticks within (0, %v]", res.ShaveLatency, power.FlexLatencyBudget)
	}
	if res.Outage || !res.RestoredAll {
		t.Errorf("outage %v, restored %v; want a clean failover and every rack back", res.Outage, res.RestoredAll)
	}

	fl, err := RunFleet(context.Background(), FleetConfig{Rooms: 2, Tick: tick})
	if err != nil {
		t.Fatal(err)
	}
	if fl.DetectLatency < 0 || fl.ShedLatency <= 0 || fl.ShedLatency > power.FlexLatencyBudget || fl.Outage {
		t.Errorf("fleet: detect %v, shed %v, outage %v; want the failure detected and shed within %v",
			fl.DetectLatency, fl.ShedLatency, fl.Outage, power.FlexLatencyBudget)
	}
	if fl.Snapshot.Rooms[0].ActedRacks == 0 {
		t.Error("fleet: the failed room acted on no rack")
	}
}

// TestNoFailureNoLatencies: a failure staged past the end of the run
// never happens, and neither emulator may report latencies for it.
func TestNoFailureNoLatencies(t *testing.T) {
	res, err := Run(context.Background(), Config{FailAt: time.Hour, RecoverAt: 2 * time.Hour, Duration: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionLatency != -1 || res.ShaveLatency != -1 {
		t.Errorf("Run: detect %v, shave %v for a failure that never happened", res.DetectionLatency, res.ShaveLatency)
	}
	fl, err := RunFleet(context.Background(), FleetConfig{Rooms: 1, FailAt: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if fl.DetectLatency != -1 || fl.ShedLatency != -1 {
		t.Errorf("RunFleet: detect %v, shed %v for a failure that never happened", fl.DetectLatency, fl.ShedLatency)
	}
}

// TestIndexValidation: a UPS or room index outside the emulated plant is
// an error that names the field and the valid range, never a panic or a
// run that quietly fails nothing.
func TestIndexValidation(t *testing.T) {
	run := func(cfg Config) error { _, err := Run(context.Background(), cfg); return err }
	fleet := func(cfg FleetConfig) error { _, err := RunFleet(context.Background(), cfg); return err }
	short := Config{FailAt: 10 * time.Second, RecoverAt: 20 * time.Second, Duration: 30 * time.Second}
	withUPS := func(u power.UPSID, rec *recorder.Recorder) Config {
		cfg := short
		cfg.FailUPS, cfg.Recorder = u, rec
		return cfg
	}
	for _, tc := range []struct {
		name string
		err  error
		want string // "" when the config is valid
	}{
		{"run/ups-9", run(withUPS(9, nil)), "FailUPS 9 out of range [0,4)"},
		{"run/ups-9-recorded", run(withUPS(9, recorder.New(64))), "FailUPS 9 out of range [0,4)"},
		{"run/ups-negative", run(withUPS(-1, nil)), "FailUPS -1 out of range [0,4)"},
		{"run/ups-3", run(withUPS(3, recorder.New(1<<16))), ""},
		{"fleet/ups-9", fleet(FleetConfig{Rooms: 2, FailUPS: 9}), "FailUPS 9 out of range [0,4)"},
		{"fleet/ups-9-recorded", fleet(FleetConfig{Rooms: 2, FailUPS: 9, Recorder: recorder.New(64)}), "FailUPS 9 out of range [0,4)"},
		{"fleet/room-5", fleet(FleetConfig{Rooms: 2, FailRoom: 5}), "FailRoom 5 out of range [0,2)"},
		{"fleet/flood-5", fleet(FleetConfig{Rooms: 2, SaturateRoom: 5, SaturateFactor: 1}), "SaturateRoom 5 out of range [0,2)"},
		{"fleet/flood-negative", fleet(FleetConfig{Rooms: 2, SaturateRoom: -1, SaturateFactor: 1}), "SaturateRoom -1 out of range [0,2)"},
		{"fleet/flood-off", fleet(FleetConfig{Rooms: 2, SaturateRoom: 5}), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: %v, want the config accepted", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one saying %q", tc.name, tc.err, tc.want)
		}
	}
}

// testPlant is the emulators' plant at their default trace seed and
// utilization.
func testPlant(t *testing.T) *plant {
	t.Helper()
	p, err := newPlant(context.Background(), 9, 0.80, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scratchTruth recomputes r's rack, pair and UPS loads and whether a
// loaded pair is dark from nothing but its demand, the UPSes out and the
// manager's state of every rack.
func scratchTruth(r *room) (rack []power.Watts, pair power.PairLoad, ups []power.Watts, dark bool) {
	p := r.plant
	rack, pair = make([]power.Watts, len(p.ids)), power.NewPairLoad(p.topo)
	for i, id := range p.ids {
		w := power.Watts(r.demand[i] * p.alloc[i])
		switch st, cap, _ := r.mgr.State(id); st {
		case rackmgr.Off:
			w = 0
		case rackmgr.Throttled:
			w = min(w, cap)
		}
		rack[i] = w
		pair[p.pair[i]] += w
	}
	ups, dark = p.topo.LoadFlow(pair, r.out)
	return rack, pair, ups, dark
}

// serviceStep is one step of a room's service history: a scheduled
// failure or recovery of ups, or a tick of length dt observed at pair
// loads pair.
type serviceStep struct {
	fail, recover bool
	ups           power.UPSID
	pair          power.PairLoad
	dt            time.Duration
}

// scratchTrips replays a room's service history from a fresh room: the
// UPSes out and every UPS's consumed tolerance, summed over the ticks
// since it last left service, each trip taking its UPS out.
func scratchTrips(topo *power.Topology, history []serviceStep) (out power.UPSSet, trip []power.TripState) {
	trip = make([]power.TripState, len(topo.UPSes))
	for _, h := range history {
		switch {
		case h.fail:
			out |= power.SetOf(h.ups)
			trip[h.ups] = power.TripState{}
		case h.recover:
			out &^= power.SetOf(h.ups)
		default:
			ups, _ := topo.LoadFlow(h.pair, out)
			for u, w := range ups {
				id, c := power.UPSID(u), topo.UPSes[u].Capacity
				if !out.Has(id) && w > c && trip[u].Advance(power.EndOfLifeTripCurve, h.dt, float64(w/c)) {
					out |= power.SetOf(id)
					trip[u] = power.TripState{}
				}
			}
		}
	}
	return out, trip
}

// sameWatts reports whether a and b are equal bit for bit.
func sameWatts(a, b []power.Watts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}

// TestRefreshMatchesScratch drives a room through random sequences of
// demand steps, rack-manager actuations (effective, repeated and refused),
// UPS failures and recoveries, ticks of the trip curve, and steps that
// change nothing, with a refresh after each: the cached truth must
// bit-equal a from-scratch recomputation every time, and the UPSes out and
// every trip state a replay of the room's whole service history. The dirty
// flag and the Actuations gate may skip work, never a change.
func TestRefreshMatchesScratch(t *testing.T) {
	p := testPlant(t)
	ups := len(p.topo.UPSes)
	trips := 0
	for seed := int64(1); seed <= 8; seed++ {
		ts := p.newTickState(seed, 500*time.Millisecond, time.Minute, 0.30, 0.015)
		r := ts.newRoom()
		rng := rand.New(rand.NewSource(seed))
		z := make([]float64, len(p.ids))
		var history []serviceStep
		for step := 0; step < 400; step++ {
			id := p.ids[rng.Intn(len(p.ids))]
			var what string
			switch op := rng.Intn(11); op {
			case 0, 1, 2:
				what = "advance"
				for j := range z {
					z[j] = rng.NormFloat64()
				}
				ts.advance(r, 0.4+0.6*rng.Float64(), z)
			case 3:
				what = "shutdown"
				_ = r.mgr.Shutdown(id) // refused while unreachable: still an actuation
			case 4:
				what = "throttle"
				_ = r.mgr.Throttle(id, power.Watts(rng.Float64())*power.Watts(p.alloc[0])) // refused when off
			case 5:
				what = "restore"
				_ = r.mgr.Restore(id)
			case 6:
				what = "reachability"
				_ = r.mgr.SetReachable(id, rng.Intn(4) > 0)
			case 7:
				what = "fail"
				u := power.UPSID(rng.Intn(ups))
				ts.fail(r, u)
				history = append(history, serviceStep{fail: true, ups: u})
			case 8:
				what = "recover"
				u := power.UPSID(rng.Intn(ups))
				ts.recover(r, u)
				history = append(history, serviceStep{recover: true, ups: u})
			case 9:
				// A tick of demand pressed towards full allocation, then
				// the trip curve over it.
				what = "overload tick"
				for j := range z {
					z[j] = rng.NormFloat64()
				}
				ts.advance(r, 1.25, z)
				dt := time.Duration(1+rng.Intn(16)) * ts.step
				r.observe(dt)
				if r.tripped != 0 {
					trips++
				}
				_, pair, _, _ := scratchTruth(r) // pair loads do not depend on the UPSes out
				history = append(history, serviceStep{pair: pair, dt: dt})
			default:
				what = "nothing"
			}
			r.refresh()
			rack, pair, wantUPS, dark := scratchTruth(r)
			g := &r.truth
			if !sameWatts(g.rack, rack) || !sameWatts(g.pair, pair) || !sameWatts(g.ups, wantUPS) || g.dark != dark {
				t.Fatalf("seed %d step %d (%s): cached truth differs from a recomputation: ups %v dark %v, want %v dark %v",
					seed, step, what, g.ups, g.dark, wantUPS, dark)
			}
			out, trip := scratchTrips(p.topo, history)
			if r.out != out || !slices.Equal(g.trip, trip) {
				t.Fatalf("seed %d step %d (%s): out %b, trip states %v; a replay of the history gives out %b, %v",
					seed, step, what, r.out, g.trip, out, trip)
			}
		}
	}
	if trips == 0 {
		t.Error("no UPS tripped: the trip ticks never took one out")
	}
}

// TestTripCascades: a room at full allocation loses a UPS and nothing
// sheds. The survivor with the least tolerance at its failover load trips
// on the first tick whose end passes that tolerance, leaves service
// through the same take-out a scheduled failure uses (the watch stays on
// the scheduled one), and the pair it shared with the failed UPS goes
// dark: an outage on that tick. Put back in service, it starts with
// nothing consumed.
func TestTripCascades(t *testing.T) {
	p := testPlant(t)
	const tick = 500 * time.Millisecond
	ts := p.newTickState(1, tick, time.Hour, 0.30, 0.015)
	r := ts.newRoom()
	for j := range r.demand {
		r.demand[j] = 1
	}
	z := make([]float64, len(p.ids)) // no noise: demand stays at 1
	ts.fail(r, 0)
	r.refresh()
	first, tol := power.UPSID(-1), time.Duration(0)
	for u, w := range r.truth.ups {
		c := p.topo.UPSes[u].Capacity
		if u == 0 || w <= c {
			continue
		}
		if d := power.EndOfLifeTripCurve.Tolerance(float64(w / c)); first < 0 || d < tol {
			first, tol = power.UPSID(u), d
		}
	}
	if first < 0 {
		t.Fatalf("no survivor over its rating at full allocation: %v", r.truth.ups)
	}
	for ; ts.now < tol+2*tick; ts.next() {
		ts.advance(r, 10, z) // a target past every category's allocation
		r.refresh()
		r.observe(tick)
		ts.settle(r)
		if r.tripped == 0 {
			if ts.outage {
				t.Fatalf("outage at %v with no trip", ts.now+tick)
			}
			continue
		}
		end := ts.now + tick // how far the trip curve has run
		if r.tripped != power.SetOf(first) {
			t.Fatalf("tripped %b at %v, want UPS %d first", r.tripped, end, first)
		}
		if end <= tol || end > tol+tick {
			t.Errorf("UPS %d tripped on the tick ending %v, want the first past its %v", first, end, tol)
		}
		if !r.out.Has(first) || !ts.outage || !r.truth.dark {
			t.Errorf("after the trip: out %b, outage %v, dark %v; want UPS %d out and the pair it shares with UPS 0 dark",
				r.out, ts.outage, r.truth.dark, first)
		}
		if ts.watched != r || ts.failUPS != 0 || ts.failedAt != 0 {
			t.Errorf("the watch moved to UPS %d at %v", ts.failUPS, ts.failedAt)
		}
		ts.recover(r, first)
		r.refresh()
		var fresh power.TripState
		w, c := r.truth.ups[first], p.topo.UPSes[first].Capacity
		fresh.Advance(power.EndOfLifeTripCurve, tick, float64(w/c))
		if r.observe(tick); r.truth.trip[first] != fresh {
			t.Errorf("UPS %d back in service at %.0f%% of rating: %v after a tick, want a fresh state's %v",
				first, 100*float64(w/c), r.truth.trip[first], fresh)
		}
		return
	}
	t.Fatalf("no trip by %v, want UPS %d out after %v", ts.now, first, tol)
}

// TestRoomTickAllocFree: on a warmed room with a UPS out, a tick's demand
// step, truth refresh and trip-curve tick allocate nothing, whether the
// refresh recomputes or returns at once.
func TestRoomTickAllocFree(t *testing.T) {
	p := testPlant(t)
	ts := p.newTickState(1, 500*time.Millisecond, time.Minute, 0.30, 0.015)
	r := ts.newRoom()
	z := make([]float64, len(p.ids))
	ts.fail(r, 0)
	ts.advance(r, 0.8, z)
	r.refresh()
	if allocs := testing.AllocsPerRun(100, func() {
		ts.advance(r, 0.8, z)
		r.refresh()
		r.refresh()
		r.observe(ts.step)
	}); allocs != 0 {
		t.Errorf("advance + refresh + observe allocated %.1f times a tick, want 0", allocs)
	}
	if r.under {
		t.Error("no survivor over its rating: the trip states never advanced")
	}
}

// TestIdleControlStepAllocFree: a controller step that finds no overdraw
// allocates nothing, on the emulation room with metrics, stages, a tracer
// and a recorder attached — both in normal operation and after it has
// shed for a failed UPS, the state a failed room idles in for the rest of
// a fleet run.
func TestIdleControlStepAllocFree(t *testing.T) {
	p := testPlant(t)
	ts := p.newTickState(1, 500*time.Millisecond, time.Minute, 0.30, 0.015)
	r := ts.newRoom()
	reg, rec := obs.NewRegistry(), recorder.New(1<<14)
	upsView, rackView := telemetry.NewLatestPower(), telemetry.NewLatestPower()
	c := controller.New(controller.Config{
		Name: "flex-ctl-1", Clock: ts.clk, Topo: p.topo, Racks: p.managed,
		UPSView: upsView, RackView: rackView, Actuator: r.mgr, Scenario: impact.Realistic1(),
		Metrics: controller.NewMetrics(reg), Stages: obs.NewStageMetrics(reg),
		Tracer: obs.NewTracer(8), Recorder: rec,
	})
	ctx := context.Background()
	// poll is one tick's truth into the views.
	rng := rand.New(rand.NewSource(1))
	z := make([]float64, len(p.ids))
	poll := func() {
		ts.next()
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		ts.advance(r, 0.8, z)
		r.refresh()
		at := ts.clk.Now()
		for u, w := range r.truth.ups {
			upsView.Update(telemetry.Sample{Device: p.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: at})
		}
		for i, w := range r.truth.rack {
			rackView.Update(telemetry.Sample{Device: p.ids[i], Power: w, Valid: true, MeasuredAt: at})
		}
	}
	idle := func(phase string) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, func() {
			if out := c.StepContext(ctx); out.Overdraw || out.Restored != 0 {
				t.Fatalf("%s: the idle step acted: %+v", phase, out)
			}
		}); allocs != 0 {
			t.Errorf("%s: idle StepContext allocated %.1f times a step, want 0", phase, allocs)
		}
	}
	for i := 0; i < 40; i++ {
		poll()
	}
	idle("normal operation")

	ts.fail(r, 0)
	shed := false
	for i := 0; i < 20 && !shed; i++ {
		poll()
		out := c.StepContext(ctx)
		acted, _ := c.CommittedActions()
		shed = !out.Overdraw && len(acted) > 0
	}
	if !shed {
		t.Fatal("the controller did not shed for the failed UPS")
	}
	idle("after the shed")
}
