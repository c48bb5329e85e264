package rackmgr

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/power"
)

func newMgr() *Manager {
	return NewManager(clock.NewVirtual(time.Unix(0, 0)), []string{"r1", "r2", "r3"})
}

func TestPowerStateString(t *testing.T) {
	if On.String() != "on" || Throttled.String() != "throttled" || Off.String() != "off" {
		t.Error("state strings")
	}
	if PowerState(9).String() != "PowerState(9)" {
		t.Error("unknown state string")
	}
}

func TestThrottleShutdownRestoreCycle(t *testing.T) {
	m := newMgr()
	if err := m.Throttle("r1", 10*power.KW); err != nil {
		t.Fatal(err)
	}
	st, cap, err := m.State("r1")
	if err != nil || st != Throttled || cap != 10*power.KW {
		t.Fatalf("state = %v %v %v", st, cap, err)
	}
	if err := m.Shutdown("r1"); err != nil {
		t.Fatal(err)
	}
	st, _, _ = m.State("r1")
	if st != Off {
		t.Fatalf("state = %v, want Off", st)
	}
	if err := m.Restore("r1"); err != nil {
		t.Fatal(err)
	}
	st, cap, _ = m.State("r1")
	if st != On || cap != 0 {
		t.Fatalf("state = %v cap = %v, want On 0", st, cap)
	}
}

func TestThrottleOffRackRefused(t *testing.T) {
	m := newMgr()
	if err := m.Shutdown("r1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Throttle("r1", power.KW); err == nil {
		t.Fatal("throttling an off rack should fail")
	}
}

func TestIdempotency(t *testing.T) {
	m := newMgr()
	m.Metrics = NewMetrics(obs.NewRegistry())
	_ = m.Shutdown("r1")
	if err := m.Shutdown("r1"); err != nil {
		t.Fatalf("duplicate shutdown errored: %v", err)
	}
	_ = m.Restore("r1")
	if err := m.Restore("r1"); err != nil {
		t.Fatalf("duplicate restore errored: %v", err)
	}
	_ = m.Throttle("r1", power.KW)
	if err := m.Throttle("r1", power.KW); err != nil {
		t.Fatalf("duplicate throttle errored: %v", err)
	}
	// Every command counts as an actuation; the duplicates count as no-ops.
	if got := m.Actuations(); got != 6 {
		t.Fatalf("actuations = %d, want 6", got)
	}
	if effective := 6 - m.Metrics.Noops.Value(); effective != 3 {
		t.Fatalf("effective actions = %d, want 3", effective)
	}
}

func TestUnknownRack(t *testing.T) {
	m := newMgr()
	if err := m.Throttle("nope", power.KW); !errors.Is(err, ErrUnknownRack) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := m.State("nope"); !errors.Is(err, ErrUnknownRack) {
		t.Fatalf("err = %v", err)
	}
	if err := m.SetReachable("nope", false); !errors.Is(err, ErrUnknownRack) {
		t.Fatalf("err = %v", err)
	}
	if err := m.SetFirmwareOK("nope", false); !errors.Is(err, ErrUnknownRack) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnreachableAndFirmwareGates(t *testing.T) {
	m := newMgr()
	_ = m.SetReachable("r1", false)
	if err := m.Shutdown("r1"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	_ = m.SetReachable("r1", true)
	_ = m.SetFirmwareOK("r1", false)
	if err := m.Shutdown("r1"); !errors.Is(err, ErrStaleFirmware) {
		t.Fatalf("err = %v, want ErrStaleFirmware", err)
	}
	_ = m.SetFirmwareOK("r1", true)
	if err := m.Shutdown("r1"); err != nil {
		t.Fatalf("healthy rack errored: %v", err)
	}
}

// sleepSignalClock is a virtual clock that signals each Sleep once its
// deadline is registered, so a test advances the clock only past a sleeper
// that is already waiting.
type sleepSignalClock struct {
	*clock.Virtual
	asleep chan struct{}
}

func (c sleepSignalClock) Sleep(d time.Duration) {
	ch := c.After(d)
	c.asleep <- struct{}{}
	<-ch
}

func TestActionLatencyCharged(t *testing.T) {
	clk := sleepSignalClock{clock.NewVirtual(time.Unix(0, 0)), make(chan struct{}, 1)}
	m := NewManager(clk, []string{"r1"})
	m.ActionLatency = 2 * time.Second
	done := make(chan error, 1)
	go func() { done <- m.Throttle("r1", power.KW) }()
	// The action blocks until the clock advances.
	select {
	case <-done:
		t.Fatal("action completed without the latency elapsing")
	case <-clk.asleep:
	}
	select {
	case <-done:
		t.Fatal("action completed without the latency elapsing")
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(2 * time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("action never completed")
	}
}

func TestConcurrentControllersIdempotent(t *testing.T) {
	// Multiple controller primaries issue the same commands concurrently
	// (paper §IV-D: "actions are idempotent and taken independently").
	m := newMgr()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.Throttle("r2", 12*power.KW)
			_ = m.Shutdown("r3")
		}()
	}
	wg.Wait()
	st, cap, _ := m.State("r2")
	if st != Throttled || cap != 12*power.KW {
		t.Fatalf("r2 = %v %v", st, cap)
	}
	st, _, _ = m.State("r3")
	if st != Off {
		t.Fatalf("r3 = %v", st)
	}
}

func TestRackIDsSorted(t *testing.T) {
	m := NewManager(clock.NewVirtual(time.Unix(0, 0)), []string{"b", "a", "c"})
	ids := m.RackIDs()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Fatalf("RackIDs = %v", ids)
	}
}

func TestWatchdogDetectsBrokenPaths(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	m := NewManager(clk, []string{"r1", "r2"})
	w := NewWatchdog(m, clk)
	if alerts := w.SweepOnce(); len(alerts) != 0 {
		t.Fatalf("healthy fleet alerted: %v", alerts)
	}
	_ = m.SetReachable("r1", false)
	_ = m.SetFirmwareOK("r2", false)
	alerts := w.SweepOnce()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %v, want 2", alerts)
	}
	if w.Sweeps() != 2 || len(w.Alerts()) != 2 {
		t.Fatalf("sweeps=%d alerts=%d", w.Sweeps(), len(w.Alerts()))
	}
}

func TestWatchdogCallback(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	m := NewManager(clk, []string{"r1"})
	w := NewWatchdog(m, clk)
	var mu sync.Mutex
	var got []Alert
	w.OnAlert = func(a Alert) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	}
	_ = m.SetReachable("r1", false)
	w.SweepOnce()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Rack != "r1" {
		t.Fatalf("callback alerts = %v", got)
	}
}

// TestRecord walks the record of what is shed through the actions that
// change it and those that must not: the first effective action's pair,
// watts and time stay, another actor's no-op duplicate and a failed action leave the
// record as it is, a throttle made a shutdown keeps its entry with state
// Off, a restore removes the rack, and a list handed out never changes.
func TestRecord(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	m := NewManager(clk, []string{"r1", "r2", "r3"})
	if record, at := m.Record(); record != nil || !at.IsZero() {
		t.Fatalf("a new manager's record is %+v at %v, want empty at the zero time", record, at)
	}
	step := func() time.Time { clk.Advance(time.Second); return clk.Now() }
	want := func(stage string, changed time.Time, entries ...Entry) []Entry {
		t.Helper()
		record, at := m.Record()
		if !slices.Equal(record, entries) || !at.Equal(changed) {
			t.Fatalf("%s: record %+v changed at %v, want %+v at %v", stage, record, at, entries, changed)
		}
		return record
	}

	shedAt := step()
	if err := m.ShutdownOp("r2", Op{Actor: "a", Pair: 3, Recovered: 7 * power.KW}); err != nil {
		t.Fatal(err)
	}
	r2 := Entry{Rack: "r2", State: Off, Pair: 3, Recovered: 7 * power.KW, At: shedAt}
	handed := want("first shed", shedAt, r2)

	step()
	if err := m.ShutdownOp("r2", Op{Actor: "b", Pair: 1, Recovered: 9 * power.KW}); err != nil {
		t.Fatal(err)
	}
	want("another actor's duplicate", shedAt, r2)

	throttleAt := step()
	if err := m.ThrottleOp("r1", 4*power.KW, Op{Actor: "b", Pair: 0, Recovered: 2 * power.KW}); err != nil {
		t.Fatal(err)
	}
	r1 := Entry{Rack: "r1", State: Throttled, Pair: 0, Recovered: 2 * power.KW, At: throttleAt}
	want("a throttle", throttleAt, r1, r2)
	offAt := step()
	if err := m.ShutdownOp("r1", Op{Actor: "a", Pair: 2, Recovered: 5 * power.KW}); err != nil {
		t.Fatal(err)
	}
	r1.State = Off
	want("the throttle made a shutdown", offAt, r1, r2)

	step()
	_ = m.SetReachable("r3", false)
	if err := m.ShutdownOp("r3", Op{Actor: "a", Pair: 1, Recovered: power.KW}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	want("a failed shed", offAt, r1, r2)

	restoreAt := step()
	if err := m.RestoreOp("r2", Op{Actor: "b"}); err != nil {
		t.Fatal(err)
	}
	want("a restore", restoreAt, r1)
	if !slices.Equal(handed, []Entry{r2}) {
		t.Fatalf("the list handed out after the first shed is now %+v", handed)
	}
}

// TestRecordReadAllocFree holds the record read every primary makes every
// round to no allocation once the sorted list is built.
func TestRecordReadAllocFree(t *testing.T) {
	m := newMgr()
	if err := m.ShutdownOp("r1", Op{Recovered: power.KW}); err != nil {
		t.Fatal(err)
	}
	m.Record()
	if allocs := testing.AllocsPerRun(100, func() { m.Record() }); allocs != 0 {
		t.Fatalf("Record allocated %v times a read, want 0", allocs)
	}
}
