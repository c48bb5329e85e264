package emu

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
)

// TestEmulationSafetyAuditor is the end-to-end acceptance run: a single
// simulated UPS failure on the virtual clock with the continuous safety
// auditor attached. Its status must report budget burn for the open
// episode, its health must flip ready→degraded and back, and the
// slo-breach / slo-recover events must be causally linked and carry the
// episode ID.
func TestEmulationSafetyAuditor(t *testing.T) {
	reg := obs.NewRegistry()
	// A full quick run emits far more telemetry events than the default
	// ring retains; size it so the mid-run SLO events survive to the end.
	rec := recorder.New(1 << 18)
	aud := slo.NewAuditor(slo.Config{
		Store:    tsdb.NewStore(tsdb.Options{}),
		Recorder: rec,
		// The emulator pumps UPS telemetry every 1.5s and rack telemetry
		// every 2s; freshness thresholds must sit above the pump cadence.
		UPSFreshness:  3 * time.Second,
		RackFreshness: 4 * time.Second,
	})
	cfg := quickObsConfig(reg, nil)
	cfg.Recorder = rec
	cfg.Safety = aud
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outage {
		t.Fatal("emulation suffered a cascading outage")
	}
	if aud.Status().Ticks == 0 {
		t.Fatal("auditor never ticked")
	}

	// Health flipped degraded during the episode and recovered — and
	// never went unsafe (the shed stayed inside the 10s budget).
	var sawDegrade, sawRecover bool
	for _, tr := range aud.Transitions() {
		if tr.To == slo.StateUnsafe {
			t.Fatalf("health went unsafe: %+v", tr)
		}
		if tr.From == slo.StateReady && tr.To == slo.StateDegraded {
			sawDegrade = true
		}
		if sawDegrade && tr.From == slo.StateDegraded && tr.To == slo.StateReady {
			sawRecover = true
		}
	}
	if !sawDegrade || !sawRecover {
		t.Fatalf("health transitions missed the ready→degraded→ready flip: %+v", aud.Transitions())
	}
	if got := aud.Health(); got.State != slo.StateReady {
		t.Fatalf("final health = %v (%v), want ready", got.State, got.Reasons)
	}

	// The budget-burn series recorded real burn during the episode but
	// the budget was never exhausted.
	store := aud.Store()
	// The ring holds every audit tick of the run.
	raw := store.Series(slo.SeriesBudgetBurn).Raw()
	ticks := aud.Status().Ticks
	if uint64(len(raw)) != ticks {
		t.Fatalf("budget-burn series kept %d points of %d audit ticks", len(raw), ticks)
	}
	var maxBurn float64
	for _, p := range raw {
		maxBurn = max(maxBurn, p.Value)
	}
	if maxBurn <= 0 || maxBurn >= 1 {
		t.Fatalf("peak budget burn = %v, want a value in (0,1)", maxBurn)
	}

	// Breach and recover events for the shed-budget objective are
	// causally paired and carry the overdraw episode ID.
	breaches := eventsOf(rec, recorder.TypeSLOBreach, slo.ObjShedBudget)
	recovers := eventsOf(rec, recorder.TypeSLORecover, slo.ObjShedBudget)
	if len(breaches) == 0 || len(recovers) == 0 {
		t.Fatalf("shed-budget events: %d breaches, %d recovers, want >=1 each", len(breaches), len(recovers))
	}
	if breaches[0].Episode == 0 {
		t.Fatal("breach event carries no episode ID")
	}
	if recovers[0].Cause != breaches[0].Seq {
		t.Fatalf("recover.Cause = %d, want breach seq %d", recovers[0].Cause, breaches[0].Seq)
	}
	// The episode the breach cites really exists in the recorder.
	detected := false
	for _, e := range recorder.ApplyFilter(rec.Snapshot(), recorder.Filter{Episode: breaches[0].Episode}) {
		detected = detected || e.Type == recorder.TypeOverdrawDetect
	}
	if !detected {
		t.Fatalf("episode %d has no overdraw-detect event", breaches[0].Episode)
	}

	// The what-if probe ran and found steady state feasible.
	st := aud.Status()
	if st.Probe.Rounds == 0 {
		t.Fatal("probe never ran")
	}
	if st.Probe.Failures != 0 {
		t.Fatalf("probe failures = %d (infeasible: %v), want 0", st.Probe.Failures, st.Probe.Infeasible)
	}
	if st.Probe.CleanRounds == 0 {
		t.Fatal("no probe-fail-free steady state at end of run")
	}

	// A derived headroom series exists per UPS of the paper room, and the
	// registry sampler scraped controller metrics into the same store.
	for u := 1; u <= 4; u++ {
		key := tsdb.SeriesKey(slo.SeriesUPSHeadroom, [2]string{"ups", fmt.Sprintf("UPS-%d", u)})
		if n := len(store.Series(key).Raw()); uint64(n) != ticks {
			t.Fatalf("%s kept %d points of %d audit ticks", key, n, ticks)
		}
	}
	if len(store.Series("flex_controller_steps_total").Raw()) == 0 {
		t.Fatal("sampler scraped no controller metrics")
	}
}

// eventsOf returns the recorded events of one type — of one subject too,
// unless subject is empty — in sequence order.
func eventsOf(rec *recorder.Recorder, typ recorder.Type, subject string) []recorder.Event {
	var out []recorder.Event
	for _, e := range rec.Snapshot() {
		if e.Type == typ && (subject == "" || e.Subject == subject) {
			out = append(out, e)
		}
	}
	return out
}
