package slo_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
	"flex/internal/workload"
)

// burnScript is the scripted room TestBurnRatesGolden drives, by tick of
// 500ms: the emulator's poll cadences (UPS every 1.5s, racks every 2s), the
// rack view stalled twice and the UPS view once, one UPS failure the
// controller sheds for, and a stretch of non-cap-able racks reporting a draw
// no failover could shed.
type burnScript struct {
	ticks               int
	rackStalls          [2][2]int // [from, to) ticks with no rack poll
	upsStall            [2]int    // [from, to) ticks with no UPS poll
	overdraw            [2]int    // [from, to) ticks the survivors read over capacity
	hotRacks            [2]int    // [from, to) ticks the non-cap-able racks report hotPower
	hotPower            power.Watts
	upsEvery, rackEvery int
}

func within(i int, span [2]int) bool { return i >= span[0] && i < span[1] }

// step is one scripted tick: advance the clock, poll what falls due, step
// the controller, audit.
func (h *harness) step(ctx context.Context, s *burnScript, i int) {
	h.clk.Advance(500 * time.Millisecond)
	h.now = h.clk.Now()
	if (i-1)%s.upsEvery == 0 && !within(i, s.upsStall) {
		ups := normalPower
		if within(i, s.overdraw) {
			ups = overdrawPower
		}
		for u, w := range ups {
			h.upsView.Update(telemetry.Sample{Device: h.topo.UPSes[u].Name, Power: w, Valid: true, MeasuredAt: h.now})
		}
	}
	if (i-1)%s.rackEvery == 0 && !within(i, s.rackStalls[0]) && !within(i, s.rackStalls[1]) {
		for _, r := range h.racks {
			st, cap, _ := h.mgr.State(r.ID)
			p := r.Allocated
			switch {
			case st == rackmgr.Off:
				p = 0
			case st == rackmgr.Throttled:
				p = cap
			case r.Category == workload.NonRedundantNonCapable && within(i, s.hotRacks):
				p = s.hotPower
			}
			h.rackView.Update(telemetry.Sample{Device: r.ID, Power: p, Valid: true, MeasuredAt: h.now})
		}
	}
	h.ctl.StepContext(ctx)
	h.aud.Tick(ctx, h.now)
}

// TestBurnRatesGolden pins every objective's fast- and slow-window burn
// rate, bit for bit, at every tick of a 1600-tick (800s) scripted run at the
// emulators' 500ms: past the fill of both windows (60s, 300s) and past the
// wrap of the 1024-point raw ring. The script stalls the rack view past
// RackFreshness twice and the UPS view past UPSFreshness once, opens one
// overdraw episode and fails one what-if probe round, so four of the five
// indicator series carry ones (no stage metrics are bound). The run
// starts on a 10s boundary, like the emulators: there every window read is
// the exact bad-tick fraction of [now−W, now], whichever way it is computed.
//
// The hash is checked every 100 ticks so a moved value is located. A
// mismatch is a finding about the burn-rate engine, not a constant to
// recapture.
func TestBurnRatesGolden(t *testing.T) {
	s := &burnScript{
		ticks:      1600,
		rackStalls: [2][2]int{{200, 236}, {900, 1010}},
		upsStall:   [2]int{1400, 1424},
		overdraw:   [2]int{402, 408},
		hotRacks:   [2]int{1229, 1233},
		hotPower:   70 * power.KW,
		upsEvery:   3,
		rackEvery:  4,
	}
	want := map[int]uint64{
		100:  0x51e78e744621f425,
		200:  0x2c36c2471ceec525,
		300:  0xe2b1c3d24a5c5b3d,
		400:  0x2de6d204ef2cea35,
		500:  0x7b8382d92d812d26,
		600:  0x390573c41b89bfa6,
		700:  0x1cc953b0eaa9d8e6,
		800:  0x1c0d14ebec1f2d26,
		900:  0x2b47a2ca1653c90b,
		1000: 0xcb7b84b904d11904,
		1100: 0x785639841357c325,
		1200: 0xb5b54a82dab9ac1c,
		1300: 0x41df580f89496ac9,
		1400: 0xcf262c7ce29e3568,
		1500: 0x86a330ad8f860066,
		1600: 0x0771bfd9834f68f6,
	}
	h := newHarness(t, slo.Config{UPSFreshness: 3 * time.Second, RackFreshness: 4 * time.Second})
	ctx := context.Background()
	sum := fnv.New64a()
	put := func(v float64) {
		sum.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	nonZero := map[string]bool{}
	for i := 1; i <= s.ticks; i++ {
		h.step(ctx, s, i)
		for _, o := range h.aud.Status().Objectives {
			put(o.FastBurn)
			put(o.SlowBurn)
			if o.SlowBurn != 0 {
				nonZero[o.Name] = true
			}
		}
		if w, ok := want[i]; ok && sum.Sum64() != w {
			t.Errorf("after tick %d: burn-rate hash %#016x, want %#016x", i, sum.Sum64(), w)
		}
	}

	// The script did what it says, so the hash covers moving values.
	count := func(typ recorder.Type, subject string) int {
		return len(eventsOf(h.rec, typ, subject))
	}
	if n := count(recorder.TypeSLOBreach, slo.ObjRackFresh); n != 2 {
		t.Errorf("rack-freshness breached %d times, want 2", n)
	}
	if n := count(recorder.TypeSLORecover, slo.ObjRackFresh); n != 2 {
		t.Errorf("rack-freshness recovered %d times, want 2", n)
	}
	if n := count(recorder.TypeSLOBreach, slo.ObjShedBudget); n != 1 {
		t.Errorf("shed-budget breached %d times, want 1", n)
	}
	if st := h.aud.Status(); st.Probe.Failures != 1 || st.Probe.Rounds < 100 {
		t.Errorf("probe = %+v, want one failed round of at least 100", st.Probe)
	}
	if n := count(recorder.TypeSLOBreach, slo.ObjUPSFresh); n != 1 {
		t.Errorf("ups-freshness breached %d times, want 1", n)
	}
	for _, name := range []string{slo.ObjRackFresh, slo.ObjUPSFresh, slo.ObjShedBudget, slo.ObjProbe} {
		if !nonZero[name] {
			t.Errorf("%s never burned", name)
		}
	}
	if st := h.aud.Health(); st.State != slo.StateReady {
		t.Errorf("the run ends %v (%v), want ready", st.State, st.Reasons)
	}
}
