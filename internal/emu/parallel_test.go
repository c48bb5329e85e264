package emu

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"flex/internal/fleet"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/workload"
)

// TestNoiseAheadMatchesStream: the producer hands the loop, tick by tick,
// exactly the normals rand.New(rand.NewSource(seed)) gives in order, in
// Run's layout and in RunFleet's, whether the run ends on a whole block or
// a partial one, and it draws nothing past the run's last tick.
func TestNoiseAheadMatchesStream(t *testing.T) {
	p := testPlant(t)
	racks, capable := len(p.ids), 0
	for _, c := range p.cat {
		if c == workload.NonRedundantCapable {
			capable++
		}
	}
	partial := false
	for _, tc := range []struct {
		name     string
		perTick  int
		duration time.Duration
	}{
		{"run", racks + capable, 360 * time.Second},
		{"fleet-3", 3 * racks, 60 * time.Second},
		{"fleet-3-shorter-than-a-block", 3 * racks, 2 * time.Second},
		{"fleet-100", 100 * racks, 5 * time.Second},
	} {
		const seed = 7
		ts := p.newTickState(seed, 500*time.Millisecond, tc.duration, 0.30, 0.015)
		stop := ts.drawAhead(tc.perTick)
		want := rand.New(rand.NewSource(seed))
		for ; ts.i <= ts.last; ts.next() {
			z := ts.normals()
			if len(z) != tc.perTick {
				t.Fatalf("%s: tick %d has %d normals, want %d", tc.name, ts.i, len(z), tc.perTick)
			}
			for j, v := range z {
				if w := want.NormFloat64(); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: tick %d normal %d is %v, the stream's is %v", tc.name, ts.i, j, v, w)
				}
			}
		}
		stop()
		if ts.rng.NormFloat64() != want.NormFloat64() {
			t.Errorf("%s: the producer drew past the run's last tick", tc.name)
		}
		partial = partial || (ts.last+1)%ts.block != 0
	}
	if !partial {
		t.Error("no case ends on a partial block")
	}
}

// TestRunFleetSameAtAnyProcs: the golden fleet run — recorder, flood, two
// primaries — hashes to the same sections whether its phases run on one
// core or split four ways.
func TestRunFleetSameAtAnyProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			TestRunFleetGolden(t)
		})
	}
}

// cancelOnWrite is a recorder sink's writer that cancels a run's context
// the first time the sink flushes, a few rack polls into the run.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (w cancelOnWrite) Write(b []byte) (int, error) {
	w.cancel()
	return len(b), nil
}

// TestRunsLeaveNoGoroutine: when Run or RunFleet returns, its noise
// producer and its workers have exited, after a run to the end and after
// one whose context was cancelled part-way through.
func TestRunsLeaveNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	short := Config{FailAt: 60 * time.Second, RecoverAt: 90 * time.Second, Duration: 120 * time.Second}
	fleetCfg := FleetConfig{Rooms: 4, FailAt: 10 * time.Second, Duration: 30 * time.Second}
	before := runtime.NumGoroutine()
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		// A goroutine an earlier test left may still be on its way out;
		// one the run left never is.
		n := runtime.NumGoroutine()
		for i := 0; i < 200 && n > before; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("%s: %d goroutines after the run, %d before", what, n, before)
		}
	}

	_, err := Run(context.Background(), short)
	check("Run", err)
	_, err = RunFleet(context.Background(), fleetCfg)
	check("RunFleet", err)

	ctx, cancel := context.WithCancel(context.Background())
	rec := recorder.New(1 << 16)
	rec.AttachSink(recorder.NewSink(cancelOnWrite{cancel}))
	cfg := short
	cfg.Recorder = rec
	_, err = Run(ctx, cfg)
	if ctx.Err() == nil {
		t.Error("Run: the context was never cancelled")
	}
	check("Run, cancelled", err)

	// A fleet run records only the failed room's episode, too little to
	// fill the sink's buffer, so a filler event first leaves it a few
	// events short of full: the sink writes, and cancels, once the failure
	// is being recorded.
	ctx, cancel = context.WithCancel(context.Background())
	rec = recorder.New(1 << 16)
	rec.AttachSink(recorder.NewSink(cancelOnWrite{cancel}))
	rec.Emit(recorder.Event{Type: recorder.TypeMeta, Detail: strings.Repeat("x", 60<<10)})
	fcfg := fleetCfg
	fcfg.Recorder = rec
	_, err = RunFleet(ctx, fcfg)
	if ctx.Err() == nil {
		t.Error("RunFleet: the context was never cancelled")
	}
	check("RunFleet, cancelled", err)
}

// TestCrewDispatchAllocFree: on warmed rooms, one steady fleet tick's
// parallel dispatch — the poll, pump and observe phases across two
// workers, with the ingest between them that gives the pumps work —
// allocates nothing.
func TestCrewDispatchAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := testPlant(t)
	const tick = 500 * time.Millisecond
	ts := p.newTickState(1, tick, time.Minute, 0.30, 0.015)
	fl := fleet.New(fleet.Config{Name: "emu-fleet", Clock: ts.clk, Obs: obs.NewRegistry()})
	rc := fleet.RoomConfig{
		Topo: p.topo, Racks: p.managed, Scenario: impact.Realistic1(), Controllers: 1,
		Stranded: p.stranded, Allocatable: p.room.AllocatablePower(), Interval: tick,
	}
	rooms := make([]*shardRoom, 4)
	for i := range rooms {
		rc.Name = fmt.Sprintf("room-%03d", i)
		var err error
		if rooms[i], err = ts.addRoom(fl, rc); err != nil {
			t.Fatal(err)
		}
	}
	c := newCrew(ts, rooms)
	defer c.stop()
	if len(c.start) != 1 {
		t.Fatalf("%d workers beside the loop at GOMAXPROCS 2, want 1", len(c.start))
	}
	rng := rand.New(rand.NewSource(1))
	z := make([]float64, len(rooms)*len(p.ids))
	for j := range z {
		z[j] = rng.NormFloat64()
	}
	tk := &c.tick
	tk.target, tk.z, tk.pollUPS, tk.pollRacks = 0.8, z, true, true
	tick1 := func() {
		ts.next()
		tk.wall = ts.clk.Now()
		c.run(phasePoll)
		for _, sr := range rooms {
			sr.shard.IngestUPS(sr.upsBatch)
			sr.shard.IngestRacks(sr.rackBatch)
		}
		c.run(phasePump)
		c.run(phaseObserve)
	}
	for i := 0; i < 3; i++ {
		tick1()
	}
	if allocs := testing.AllocsPerRun(50, tick1); allocs != 0 {
		t.Errorf("a steady tick's parallel dispatch allocated %.1f times, want 0", allocs)
	}
}
