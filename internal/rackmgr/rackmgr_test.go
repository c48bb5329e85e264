package rackmgr

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flex/internal/clock"
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
	// The log marks duplicates as not effective.
	effective := 0
	for _, a := range m.Log() {
		if a.Effective {
			effective++
		}
	}
	if effective != 3 {
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

func TestActionLatencyCharged(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	m := NewManager(clk, []string{"r1"})
	m.ActionLatency = 2 * time.Second
	done := make(chan error, 1)
	go func() { done <- m.Throttle("r1", power.KW) }()
	// The action blocks until the clock advances.
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
