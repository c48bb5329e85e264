package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"flex/internal/impact"
	"flex/internal/obs/recorder"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// placedRoom builds a small placed room for simulation tests.
func placedRoom(t *testing.T) *placement.Placement {
	t.Helper()
	room := placement.EmulationRoom()
	cfg := workload.DefaultTraceConfig(room.Topo.ProvisionedPower())
	cfg.WorkloadsPerCategory = 1 // the §V-C setup: one workload per category
	trace, err := workload.GenerateTrace(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := placement.FlexOffline{BatchFraction: 0.33, MaxNodes: 150}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestExpandRacksMatchesPlacement(t *testing.T) {
	pl := placedRoom(t)
	racks := ExpandRacks(pl)
	wantRacks := 0
	var wantPow power.Watts
	for _, d := range pl.Placed() {
		wantRacks += d.Racks
		wantPow += d.TotalPower()
	}
	if len(racks) != wantRacks {
		t.Fatalf("racks = %d, want %d", len(racks), wantRacks)
	}
	var gotPow power.Watts
	ids := map[string]bool{}
	for _, r := range racks {
		gotPow += r.Allocated
		if ids[r.ID] {
			t.Fatalf("duplicate rack ID %s", r.ID)
		}
		ids[r.ID] = true
	}
	if math.Abs(float64(gotPow-wantPow)) > 1 {
		t.Fatalf("total allocated = %v, want %v", gotPow, wantPow)
	}
}

func TestManagedRacksConversion(t *testing.T) {
	pl := placedRoom(t)
	racks := ExpandRacks(pl)
	managed := ManagedRacks(racks)
	if len(managed) != len(racks) {
		t.Fatal("length mismatch")
	}
	for i := range racks {
		if managed[i].ID != racks[i].ID || managed[i].Pair != racks[i].Pair ||
			managed[i].FlexPower != racks[i].FlexPower {
			t.Fatalf("conversion mismatch at %d", i)
		}
	}
}

func TestSampleRackPowersHitsUtilization(t *testing.T) {
	pl := placedRoom(t)
	racks := ExpandRacks(pl)
	rng := rand.New(rand.NewSource(4))
	for _, util := range []float64{0.5, 0.8} {
		sample := SampleRackPowers(racks, util, rng)
		var total, alloc power.Watts
		for _, r := range racks {
			p := sample[r.ID]
			if p < 0 || p > r.Allocated+1 {
				t.Fatalf("rack %s power %v outside [0, %v]", r.ID, p, r.Allocated)
			}
			total += p
			alloc += r.Allocated
		}
		got := float64(total) / float64(alloc)
		// Clamping at the allocation can leave the total slightly under.
		if got > util+0.001 || got < util-0.02 {
			t.Fatalf("sampled utilization %.4f, want ≈%.2f", got, util)
		}
	}
}

func TestPairLoadFromRacksConserves(t *testing.T) {
	pl := placedRoom(t)
	racks := ExpandRacks(pl)
	rng := rand.New(rand.NewSource(4))
	sample := SampleRackPowers(racks, 0.8, rng)
	load := PairLoadFromRacks(pl.Room.Topo, racks, sample)
	var want power.Watts
	for _, p := range sample {
		want += p
	}
	if math.Abs(float64(load.Total()-want)) > 1 {
		t.Fatalf("pair load total %v, want %v", load.Total(), want)
	}
}

func TestRunFigure12ShapeAndMonotonicity(t *testing.T) {
	pl := placedRoom(t)
	pts, err := RunFigure12(context.Background(), Figure12Config{
		Placement:         pl,
		Scenario:          impact.Realistic1(),
		Utilizations:      []float64{0.72, 0.78, 0.84},
		SamplesPerFailure: 2,
		Seed:              11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Higher utilization must impact at least as many racks (on average).
	if pts[0].Impacted.Mean > pts[2].Impacted.Mean {
		t.Fatalf("impact not increasing: %.2f → %.2f", pts[0].Impacted.Mean, pts[2].Impacted.Mean)
	}
	// At 84% utilization some action is necessary.
	if pts[2].Impacted.Mean <= 0 {
		t.Fatal("no impact at 84% utilization")
	}
	for _, p := range pts {
		for _, v := range []float64{p.Impacted.Mean, p.ShutDown.Mean, p.Throttled.Mean} {
			if v < 0 || v > 100 {
				t.Fatalf("percentage %v out of range at util %.2f", v, p.Utilization)
			}
		}
	}
}

// TestFigure12Golden pins the Figure 12 sweep: every point of all four
// Figure 11 scenarios at three utilizations, and every planned action in
// order (the recorder's episode log of the snapshots), hashed from their
// JSON encoding — shortest round-tripping floats, so equal hashes mean
// bit-equal values. How the sweep calls Algorithm 1 may change; what it
// computes may not. Captured on amd64 before RunFigure12 held a
// controller.Planner.
func TestFigure12Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes were captured on amd64, not %s", runtime.GOARCH)
	}
	pl := placedRoom(t)
	rec := recorder.New(1 << 16)
	var points [][]Figure12Point
	for _, s := range impact.Figure11Scenarios() {
		pts, err := RunFigure12(context.Background(), Figure12Config{
			Placement:         pl,
			Scenario:          s,
			Utilizations:      []float64{0.74, 0.80, 0.85},
			SamplesPerFailure: 2,
			Seed:              12,
			Recorder:          rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pts[2].Impacted.Mean <= 0 {
			t.Fatalf("fixture: %s plans nothing at 85%% utilization", s.Name)
		}
		points = append(points, pts)
	}
	if rec.Overwritten() > 0 {
		t.Fatalf("recorder overwrote %d events; the hash needs all of them", rec.Overwritten())
	}
	for _, sec := range []struct {
		name string
		v    any
		want string
	}{
		{"points", points, "4d113fe94dd3be92"},
		{"actions", rec.Snapshot(), "2a4b73b01d2df30b"},
	} {
		b, err := json.Marshal(sec.v)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != sec.want {
			t.Errorf("%s hash %s, want %s", sec.name, got, sec.want)
		}
	}
}

func TestRunFigure12ScenarioOrdering(t *testing.T) {
	pl := placedRoom(t)
	run := func(s impact.Scenario) Figure12Point {
		pts, err := RunFigure12(context.Background(), Figure12Config{
			Placement:         pl,
			Scenario:          s,
			Utilizations:      []float64{0.82},
			SamplesPerFailure: 2,
			Seed:              11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts[0]
	}
	e1 := run(impact.Extreme1())
	e2 := run(impact.Extreme2())
	// Paper Fig 12: Extreme-1 shuts down the most and throttles the
	// fewest; Extreme-2 is the mirror image.
	if e1.ShutDown.Mean <= e2.ShutDown.Mean {
		t.Errorf("Extreme-1 shutdowns %.1f%% should exceed Extreme-2 %.1f%%",
			e1.ShutDown.Mean, e2.ShutDown.Mean)
	}
	if e1.Throttled.Mean >= e2.Throttled.Mean {
		t.Errorf("Extreme-1 throttles %.1f%% should be below Extreme-2 %.1f%%",
			e1.Throttled.Mean, e2.Throttled.Mean)
	}
	// Extreme-1 impacts the fewest racks (shutdown recovers more power).
	if e1.Impacted.Mean > e2.Impacted.Mean {
		t.Errorf("Extreme-1 impacted %.1f%% should be <= Extreme-2 %.1f%%",
			e1.Impacted.Mean, e2.Impacted.Mean)
	}
}

func TestRunFigure12Validation(t *testing.T) {
	if _, err := RunFigure12(context.Background(), Figure12Config{}); err == nil {
		t.Fatal("expected error without placement")
	}
}

func TestDefaultUtilizations(t *testing.T) {
	us := DefaultUtilizations()
	if len(us) < 10 {
		t.Fatalf("got %d utilizations", len(us))
	}
	if math.Abs(us[0]-0.74) > 1e-9 || us[len(us)-1] < 0.845 {
		t.Fatalf("range = [%v, %v]", us[0], us[len(us)-1])
	}
}
