package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"flex/internal/obs"
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
	for _, d := range malformedProbes() {
		if _, ok := adm.Admit(d); ok {
			t.Fatalf("expected rejection of %v", d)
		}
	}
	after := adm.Snapshot()
	if after.Committed != before.Committed || after.PlacedPower != before.PlacedPower {
		t.Fatalf("rejection mutated state: before %+v after %+v", before, after)
	}
	for c := range after.ComboLoad {
		if after.ComboLoad[c] != before.ComboLoad[c] {
			t.Fatalf("rejection mutated combo %d: before %v after %v", c, before.ComboLoad[c], after.ComboLoad[c])
		}
	}
}

// malformedProbes are one-rack deployments whose numbers no safety check
// refuses — every check is a > that NaN answers false and a negative power
// slips under — and that poison the tables once in.
func malformedProbes() []workload.Deployment {
	return []workload.Deployment{
		oneRack(1<<21, power.Watts(math.NaN())),
		oneRack(1<<21+1, -50*power.MW),
		{ID: 1<<21 + 2, Racks: 1, PowerPerRack: power.KW, Category: workload.NonRedundantCapable, FlexPowerFraction: math.NaN()},
		{ID: 1<<21 + 3, Racks: 1, PowerPerRack: power.KW, Category: workload.Category(9)},
	}
}

// oneRack is a one-rack non-cap-able deployment.
func oneRack(id int, perRack power.Watts) workload.Deployment {
	return workload.Deployment{
		ID: id, Racks: 1, PowerPerRack: perRack,
		Category: workload.NonRedundantNonCapable, FlexPowerFraction: 1,
	}
}

// TestAdmitValidatesWhatItAdmits: a malformed deployment is rejected on an
// empty room, and the room then admits no more than it is provisioned for
// (before the check a NaN rack power was accepted on pair 0 and 183 MW of
// 1 MW non-cap-able racks followed it into the 9.6 MW room; -50 MW let
// 56 MW in).
func TestAdmitValidatesWhatItAdmits(t *testing.T) {
	for _, probe := range malformedProbes() {
		room := placement.PaperRoom()
		adm, err := NewAdmitter(room, Config{Seed: 1, ResolveEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if pid, ok := adm.Admit(probe); ok {
			t.Errorf("%v admitted on pair %d", probe, pid)
		}
		for id := 0; id < 300; id++ {
			adm.Admit(oneRack(id, power.MW))
		}
		if s := adm.Snapshot(); !(s.PlacedPower <= room.Topo.ProvisionedPower()) {
			t.Errorf("after %v the %v room holds %v", probe, room.Topo.ProvisionedPower(), s.PlacedPower)
		}
		if got := adm.cfg.Metrics.rejections[reasonInvalid].Value(); got != 1 {
			t.Errorf("%v: %d rejections counted as invalid, want 1", probe, got)
		}
	}
}

// TestNewAdmitterRejectsMalformedScenarioTrace: the scenario stream is
// replayed into the scratch ledger unchecked, so its entries are validated
// once, at construction.
func TestNewAdmitterRejectsMalformedScenarioTrace(t *testing.T) {
	room := placement.EmulationRoom()
	trace := emuTrace(t, room, 3)[:8]
	if _, err := NewAdmitter(room, Config{ScenarioTrace: trace}); err != nil {
		t.Fatalf("valid scenario trace: %v", err)
	}
	for _, bad := range malformedProbes() {
		poisoned := append(append([]workload.Deployment(nil), trace...), bad)
		if _, err := NewAdmitter(room, Config{ScenarioTrace: poisoned}); err == nil {
			t.Errorf("scenario trace ending in %v accepted", bad)
		}
	}
}

// sixN5Room is a 6N/5 room, 15 UPS combinations of two PDU-pairs each: the
// scorer's per-combo scratch at a size the four-UPS rooms do not reach.
func sixN5Room(t testing.TB) *placement.Room {
	t.Helper()
	topo, err := power.NewRoom(power.RoomConfig{
		Design:              power.Redundancy{X: 6, Y: 5},
		UPSCapacity:         1.2 * power.MW,
		PairsPerCombination: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	room, err := placement.NewRoom(topo, 40)
	if err != nil {
		t.Fatal(err)
	}
	return room
}

// TestAdmitAllocFree pins the acceptance criterion: the hot-path
// admit/remove cycle performs zero heap allocations at steady state — on
// the one-pair-per-combo emulation room, on the paper room flexbench
// churns, and on a 15-combo room — with several combos feasible, so the
// scenario scorer and its scratch are on the measured path.
func TestAdmitAllocFree(t *testing.T) {
	rooms := map[string]*placement.Room{
		"emulation": placement.EmulationRoom(),
		"paper":     placement.PaperRoom(),
		"6N/5":      sixN5Room(t),
	}
	for name, room := range rooms {
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
			t.Fatalf("%s: trace too short", name)
		}
		i, contested := 0, 0
		allocs := testing.AllocsPerRun(200, func() {
			d := churn[i%len(churn)]
			if _, ok := adm.Admit(d); ok {
				for _, pair := range adm.candPair {
					if pair >= 0 {
						contested++
					}
				}
				adm.Remove(d.ID)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: hot-path admit/remove allocates %.1f per op, want 0", name, allocs)
		}
		if contested < 2*200 {
			t.Errorf("%s: %d feasible combos over 200 admissions; the scorer was hardly exercised", name, contested)
		}
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
	if got := adm.cfg.Metrics.ResolveObjective.Value(); got <= 0 {
		t.Fatalf("no solved guidance published: objective %v, %+v", got, s)
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

// resolverDeadline bounds each background-resolver test: both finish in
// seconds, so one still running is deadlocked on the admitter's locks.
const resolverDeadline = time.Minute

// within runs f and fails t unless it returns within resolverDeadline, so a
// lock-order regression in the admitter fails the test that hit it instead
// of stalling go test until its own timeout. A deadlocked f is left behind.
func within(t *testing.T, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(resolverDeadline):
		t.Fatalf("still running after %v: deadlocked", resolverDeadline)
	}
}

// TestBackgroundResolveDoesNotBlockAdmission: with the async resolver
// running, admissions complete and the final placement stays safe (the
// race detector guards the pointer-swap protocol).
func TestBackgroundResolveDoesNotBlockAdmission(t *testing.T) {
	room := placement.EmulationRoom()
	trace := emuTrace(t, room, 17)
	cfg := Config{Seed: 17, ResolveEvery: 4, ResolveNodes: 100, ResolveBudget: time.Second}
	within(t, func() error {
		p, err := Online{Config: cfg}.Place(context.Background(), room, trace)
		if err != nil {
			return err
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("unsafe placement with async resolver: %w", err)
		}
		return nil
	})
}

// TestResolveOnceAlongsideBackgroundResolver: ResolveOnce is documented
// safe to call directly while StartResolve's goroutine runs. One goroutine
// resolves in a loop while every admission triggers the background
// resolver; under -race, unserialised resolves meet on the shared batch
// scratch (the detector catches that in roughly four runs of five).
func TestResolveOnceAlongsideBackgroundResolver(t *testing.T) {
	room := placement.EmulationRoom()
	cfg := Config{Seed: 19, ResolveEvery: 1, ResolveNodes: 1, ResolveBudget: time.Second}
	adm, err := NewAdmitter(room, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := emuTrace(t, room, 19)
	within(t, func() error {
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
		for _, d := range trace {
			// Pace admissions by completed resolves so the background
			// resolver is triggered throughout, not in one burst.
			for before := resolves.Value(); resolves.Value() < before+2; {
				runtime.Gosched()
			}
			adm.Admit(d)
		}
		close(admitted)
		if err := <-direct; err != nil {
			return fmt.Errorf("ResolveOnce: %w", err)
		}
		return nil
	})
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

// TestRejectionReasons drives one rejection of each reason on the emulation
// room (4 × 1.2 MW, one 60-slot pair per combo) and checks that exactly that
// child of flex_online_rejections_total moved and that the children sum to
// flex_online_rejected_total. The batch policies place through the same
// placement.Occupancy, so each room-limit case is also put to an occupancy
// holding the same deployments: its Check, over every pair, must name the
// same limit.
func TestRejectionReasons(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	dep := func(cat workload.Category, racks int, perRack power.Watts) workload.Deployment {
		d := workload.Deployment{ID: 1, Category: cat, Racks: racks, PowerPerRack: perRack}
		if cat == workload.NonRedundantNonCapable {
			d.FlexPowerFraction = 1
		}
		return d
	}
	withID := func(d workload.Deployment, id int) workload.Deployment {
		d.ID = id
		return d
	}
	small := dep(workload.SoftwareRedundant, 1, power.KW)
	cases := []struct {
		name  string
		setup func(*placement.Room)
		first []workload.Deployment // admitted before the rejection
		d     workload.Deployment
		want  reason
	}{
		{"NaN rack power", nil, nil, dep(workload.SoftwareRedundant, 1, power.Watts(math.NaN())), reasonInvalid},
		{"duplicate ID", nil, []workload.Deployment{small}, small, reasonInvalid},
		{"committed list full", func(r *placement.Room) {
			for i := range r.SlotsPerPair {
				r.SlotsPerPair[i] = 0
			}
		}, nil, small, reasonInvalid},
		{"airflow", func(r *placement.Room) { r.CFMPerWatt, r.CoolingCFM = 0.1, 0.1*100e3 },
			nil, dep(workload.SoftwareRedundant, 20, 10*power.KW), placement.OverCooling},
		// 4 MW that cannot be shaved, against a 3.6 MW failover budget.
		{"unshaveable", nil, nil, dep(workload.NonRedundantNonCapable, 40, 100*power.KW), placement.OverDiversityReserve},
		{"61 racks", nil, nil, dep(workload.SoftwareRedundant, 61, power.KW), placement.OverSlots},
		// 3 MW puts 1.5 MW on each UPS of its pair; all of it can be shed.
		{"3 MW shaveable", nil, nil, dep(workload.SoftwareRedundant, 60, 50*power.KW), placement.OverNormalLimit},
		// 1.5 MW is 0.75 MW a UPS, and 1.5 MW on the survivor.
		{"1.5 MW unshaveable", nil, nil, dep(workload.NonRedundantNonCapable, 60, 25*power.KW), placement.OverFailoverCapacity},
		{"600 kW on 500 kW pairs", func(r *placement.Room) { r.PairCapacity = 500 * power.KW },
			nil, dep(workload.SoftwareRedundant, 40, 15*power.KW), placement.OverPairRating},
		// The furthest combo decides: five combos lack the space, the sixth
		// has it and is stopped by Eq. 4.
		{"space on one combo only", func(r *placement.Room) {
			for i := range r.SlotsPerPair[1:] {
				r.SlotsPerPair[1+i] = 10
			}
		}, nil, dep(workload.NonRedundantNonCapable, 60, 25*power.KW), placement.OverFailoverCapacity},
		// Two commits fill two disjoint combos and leave every UPS 1.05 MW:
		// 0.5 MW more meets full combos and Eq. 2 everywhere else.
		{"two full combos", nil, []workload.Deployment{withID(dep(workload.SoftwareRedundant, 60, 35*power.KW), 1),
			withID(dep(workload.SoftwareRedundant, 60, 35*power.KW), 2)},
			withID(dep(workload.SoftwareRedundant, 10, 50*power.KW), 3), placement.OverNormalLimit},
	}
	var want [numReasons]uint64
	for _, c := range cases {
		room := placement.EmulationRoom()
		if c.setup != nil {
			c.setup(room)
		}
		adm, err := NewAdmitter(room, Config{ResolveEvery: -1, Metrics: m})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		batch := placement.NewOccupancy(room)
		for _, d := range c.first {
			pid, ok := adm.Admit(d)
			if !ok {
				t.Fatalf("%s: set-up deployment rejected", c.name)
			}
			batch.Add(d, pid)
		}
		if pid, ok := adm.Admit(c.d); ok {
			t.Fatalf("%s: admitted on pair %d", c.name, pid)
		}
		want[c.want]++
		for r, child := range m.rejections {
			if child.Value() != want[r] {
				t.Fatalf("%s: %s = %d, want %d", c.name, reasonNames[r], child.Value(), want[r])
			}
		}
		if c.want == reasonInvalid {
			continue // the admitter's own reason, no room limit
		}
		// The pair that gets furthest decides, as the combo does.
		furthest := placement.Fits
		for pid := range room.Topo.Pairs {
			lim := batch.Check(c.d, power.PDUPairID(pid))
			if lim == placement.Fits {
				t.Fatalf("%s: the occupancy takes it on pair %d", c.name, pid)
			}
			furthest = max(furthest, lim)
		}
		if furthest != c.want {
			t.Errorf("%s: the occupancy refuses with %s, the admitter with %s", c.name, reasonNames[furthest], reasonNames[c.want])
		}
	}
	for r, n := range want {
		if n == 0 {
			t.Errorf("no case rejects with reason %s", reasonNames[r])
		}
	}
	if got := m.Rejected.Value(); got != uint64(len(cases)) {
		t.Errorf("flex_online_rejected_total = %d after %d rejections", got, len(cases))
	}
}

// TestRejectionReasonsSumToTotal: over the golden sawtooth's 20 000
// decisions every rejection is counted under exactly one reason.
func TestRejectionReasonsSumToTotal(t *testing.T) {
	stream := arrivals(t, placement.PaperRoom().Topo.ProvisionedPower(), 20000, 1)
	for name, build := range goldenShapes(t, 1) {
		adm, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sawtooth(adm, stream, 1)
		m := adm.cfg.Metrics
		var sum uint64
		for _, child := range m.rejections {
			sum += child.Value()
		}
		if sum != m.Rejected.Value() || sum == 0 {
			t.Errorf("%s: reasons sum to %d, flex_online_rejected_total is %d", name, sum, m.Rejected.Value())
		}
		if m.Admitted.Value()+m.Rejected.Value() != uint64(len(stream)) {
			t.Errorf("%s: %d admitted + %d rejected over %d decisions", name, m.Admitted.Value(), m.Rejected.Value(), len(stream))
		}
	}
}
