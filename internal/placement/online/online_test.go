package online

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

func emuTrace(t testing.TB, room *placement.Room, seed int64) []workload.Deployment {
	t.Helper()
	trace, err := workload.GenerateTrace(
		workload.DefaultTraceConfig(room.Topo.ProvisionedPower()), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	return trace
}

// deterministicConfig runs the resolver inline so two runs with the same
// seed make identical decisions.
func deterministicConfig(seed int64) Config {
	return Config{Seed: seed, SyncResolve: true, ResolveEvery: 8, ResolveNodes: 200, ResolveBudget: 5 * time.Second}
}

// TestOnlinePlaceSafe: every placement the online policy produces on the
// §V-C emulation room passes the from-scratch Validate — space, Eq. 2
// normal-operation capacity, and Eq. 4 failover safety for every UPS
// failure.
func TestOnlinePlaceSafe(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		room := placement.EmulationRoom()
		trace := emuTrace(t, room, seed)
		p, err := Online{Config: deterministicConfig(seed)}.Place(context.Background(), room, trace)
		if err != nil {
			t.Fatalf("seed %d: Place: %v", seed, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: unsafe placement: %v", seed, err)
		}
		if len(p.Assignments) == 0 {
			t.Fatalf("seed %d: nothing placed", seed)
		}
	}
}

// TestOnlineDeterministic: same seed and SyncResolve ⇒ identical
// assignments.
func TestOnlineDeterministic(t *testing.T) {
	room1, room2 := placement.EmulationRoom(), placement.EmulationRoom()
	trace := emuTrace(t, room1, 7)
	p1, err := Online{Config: deterministicConfig(7)}.Place(context.Background(), room1, trace)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Online{Config: deterministicConfig(7)}.Place(context.Background(), room2, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Assignments) != len(p2.Assignments) {
		t.Fatalf("placed %d vs %d deployments", len(p1.Assignments), len(p2.Assignments))
	}
	for id, pid := range p1.Assignments {
		if p2.Assignments[id] != pid {
			t.Fatalf("deployment %d: pair %d vs %d", id, pid, p2.Assignments[id])
		}
	}
}

// TestOnlineGapVsOffline is the acceptance criterion of ISSUE 9 in test
// form: on the §V-C trace the online policy's stranded power stays within
// 10 percentage points of the FlexOffline optimum, with zero safety
// violations.
func TestOnlineGapVsOffline(t *testing.T) {
	room := placement.EmulationRoom()
	trace := emuTrace(t, room, 42)
	on, err := Online{Config: deterministicConfig(42)}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := on.Validate(); err != nil {
		t.Fatalf("online placement unsafe: %v", err)
	}
	off, err := placement.FlexOfflineOracle().Place(context.Background(), placement.EmulationRoom(), trace)
	if err != nil {
		t.Fatal(err)
	}
	gap := on.StrandedFraction() - off.StrandedFraction()
	t.Logf("stranded: online %.4f, offline %.4f, gap %.4f", on.StrandedFraction(), off.StrandedFraction(), gap)
	if gap > 0.10 {
		t.Fatalf("online stranded fraction %.4f exceeds offline %.4f by more than 0.10",
			on.StrandedFraction(), off.StrandedFraction())
	}
}

// TestAdmitRemove: removing a committed deployment restores every
// residual table, so the freed capacity is admittable again; unknown and
// duplicate IDs are handled.
func TestAdmitRemove(t *testing.T) {
	room := placement.EmulationRoom()
	adm, err := NewAdmitter(room, Config{Seed: 3, ResolveEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	trace := emuTrace(t, room, 3)
	d := trace[0]
	if _, ok := adm.Admit(d); !ok {
		t.Fatal("first admission rejected on an empty room")
	}
	if _, ok := adm.Admit(d); ok {
		t.Fatal("duplicate ID admitted")
	}
	before := adm.Snapshot()
	if adm.Remove(999999) {
		t.Fatal("removed unknown ID")
	}
	if !adm.Remove(d.ID) {
		t.Fatal("failed to remove committed deployment")
	}
	after := adm.Snapshot()
	if after.Committed != before.Committed-1 || after.PlacedPower != 0 {
		t.Fatalf("remove did not restore state: %+v", after)
	}
	if _, ok := adm.Admit(d); !ok {
		t.Fatal("re-admission after remove rejected")
	}
}

// TestAdmitRejectLeavesStateUntouched: fill the room until a rejection,
// then check the rejection changed nothing.
func TestAdmitRejectLeavesStateUntouched(t *testing.T) {
	room := placement.EmulationRoom()
	adm, err := NewAdmitter(room, Config{Seed: 5, ResolveEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	trace := emuTrace(t, room, 5)
	rejected := -1
	for _, d := range trace {
		if _, ok := adm.Admit(d); !ok {
			rejected = d.ID
			break
		}
	}
	if rejected < 0 {
		t.Skip("trace fit entirely; no rejection to test")
	}
	before := adm.Snapshot()
	big := workload.Deployment{
		ID: 1 << 20, Racks: 60, PowerPerRack: 17.2 * power.KW,
		Category: workload.NonRedundantNonCapable, FlexPowerFraction: 1,
	}
	if _, ok := adm.Admit(big); ok {
		t.Fatal("expected rejection of an oversized deployment on a full room")
	}
	after := adm.Snapshot()
	if after.Committed != before.Committed || after.PlacedPower != before.PlacedPower {
		t.Fatalf("rejection mutated state: before %+v after %+v", before, after)
	}
}

// TestAdmitAllocFree pins the acceptance criterion: the hot-path
// admit/remove cycle performs zero heap allocations at steady state.
func TestAdmitAllocFree(t *testing.T) {
	room := placement.EmulationRoom()
	adm, err := NewAdmitter(room, Config{Seed: 11, ResolveEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	trace := emuTrace(t, room, 11)
	// Warm up: commit a realistic base load, then churn the remainder.
	for _, d := range trace[:len(trace)/2] {
		adm.Admit(d)
	}
	churn := trace[len(trace)/2:]
	if len(churn) == 0 {
		t.Fatal("trace too short")
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		d := churn[i%len(churn)]
		if _, ok := adm.Admit(d); ok {
			adm.Remove(d.ID)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("hot-path admit/remove allocates %.1f per op, want 0", allocs)
	}
}

// TestResolvePublishesGuidance: the warm re-solve publishes a solved
// target profile and objective the hot path snapshots.
func TestResolvePublishesGuidance(t *testing.T) {
	room := placement.EmulationRoom()
	cfg := deterministicConfig(13)
	cfg.ResolveEvery = 4
	adm, err := NewAdmitter(room, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := emuTrace(t, room, 13)
	resolved := false
	for _, d := range trace {
		adm.Admit(d)
		if adm.takeResolvePending() {
			if err := adm.ResolveOnce(context.Background()); err != nil {
				t.Fatalf("ResolveOnce: %v", err)
			}
			resolved = true
		}
	}
	if !resolved {
		t.Fatal("resolve never triggered")
	}
	s := adm.Snapshot()
	if s.ResolverObjective <= 0 {
		t.Fatalf("no solved guidance published: %+v", s)
	}
	if got := adm.cfg.Metrics.Resolves.Value(); got == 0 {
		t.Fatal("resolve counter not incremented")
	}
	var total power.Watts
	for _, w := range s.TargetLoad {
		total += w
	}
	if total <= 0 {
		t.Fatal("published target profile is empty")
	}
}

// TestBackgroundResolveDoesNotBlockAdmission: with the async resolver
// running, admissions complete and the final placement stays safe (the
// race detector guards the pointer-swap protocol).
func TestBackgroundResolveDoesNotBlockAdmission(t *testing.T) {
	room := placement.EmulationRoom()
	trace := emuTrace(t, room, 17)
	cfg := Config{Seed: 17, ResolveEvery: 4, ResolveNodes: 100, ResolveBudget: time.Second}
	p, err := Online{Config: cfg}.Place(context.Background(), room, trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("unsafe placement with async resolver: %v", err)
	}
}

// TestResolveOnceAlongsideBackgroundResolver: ResolveOnce is documented
// safe to call directly while StartResolve's goroutine runs. One goroutine
// resolves in a loop while every admission triggers the background
// resolver; under -race, unserialised resolves meet on the shared batch
// scratch (the detector catches that in roughly four runs of five).
func TestResolveOnceAlongsideBackgroundResolver(t *testing.T) {
	room := placement.EmulationRoom()
	cfg := Config{Seed: 19, ResolveEvery: 1, ResolveNodes: 1, ResolveBudget: time.Second, ResolveWorkers: 1}
	adm, err := NewAdmitter(room, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := adm.StartResolve(ctx)
	defer stop()
	admitted := make(chan struct{})
	direct := make(chan error, 1)
	go func() {
		for {
			select {
			case <-admitted:
				direct <- nil
				return
			default:
			}
			if err := adm.ResolveOnce(ctx); err != nil {
				direct <- err
				return
			}
		}
	}()
	resolves := adm.cfg.Metrics.Resolves
	for _, d := range emuTrace(t, room, 19) {
		// Pace admissions by completed resolves so the background
		// resolver is triggered throughout, not in one burst.
		for before := resolves.Value(); resolves.Value() < before+2; {
			runtime.Gosched()
		}
		adm.Admit(d)
	}
	close(admitted)
	if err := <-direct; err != nil {
		t.Fatalf("ResolveOnce: %v", err)
	}
}

// TestOnlineRowsUnsupported: row-level space modelling cannot run on the
// allocation-free hot path; the constructor says so instead of silently
// mis-placing.
func TestOnlineRowsUnsupported(t *testing.T) {
	room := placement.EmulationRoom()
	room.RowsPerPair, room.RowSlots = 6, 10
	if _, err := NewAdmitter(room, Config{}); err == nil {
		t.Fatal("expected an error for a rows-enabled room")
	}
	if _, err := (Online{}).Place(context.Background(), room, nil); err == nil {
		t.Fatal("expected Place to surface the rows error")
	}
}

// TestOnlineCtxCancel: a canceled ctx aborts the trace promptly.
func TestOnlineCtxCancel(t *testing.T) {
	room := placement.EmulationRoom()
	trace := emuTrace(t, room, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Online{Config: Config{ResolveEvery: -1}}).Place(ctx, room, trace); err == nil {
		t.Fatal("expected context cancellation error")
	}
}
