package emu

import (
	"context"
	"strings"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
	"flex/internal/obs/tsdb"
)

// TestEmulationSafetyAuditor is the end-to-end acceptance run: a single
// simulated UPS failure on the virtual clock with the continuous safety
// auditor attached. /slo must report budget burn for the open episode,
// /healthz must flip ready→degraded and back, and the slo-breach /
// slo-recover events must be causally linked and carry the episode ID.
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
	burn, ok := store.Lookup(slo.SeriesBudgetBurn)
	if !ok {
		t.Fatal("budget-burn series missing")
	}
	// The ring holds every audit tick of the run: the 10s-step maxima over
	// it peak where the raw points do.
	raw := burn.Raw()
	if ticks := aud.Status().Ticks; uint64(len(raw)) != ticks {
		t.Fatalf("budget-burn series kept %d points of %d audit ticks", len(raw), ticks)
	}
	var rawPeak, maxBurn float64
	for _, p := range raw {
		rawPeak = max(rawPeak, p.Value)
	}
	for _, p := range burn.Query(tsdb.QueryRange{From: raw[0].Time, To: raw[len(raw)-1].Time, Step: 10 * time.Second, Agg: tsdb.AggMax}) {
		maxBurn = max(maxBurn, p.Value)
	}
	if maxBurn <= 0 || maxBurn >= 1 || maxBurn != rawPeak {
		t.Fatalf("peak budget burn = %v (raw peak %v), want one value in (0,1)", maxBurn, rawPeak)
	}

	// Breach and recover events for the shed-budget objective are
	// causally paired and carry the overdraw episode ID.
	breaches := rec.Query(recorder.Filter{Type: recorder.TypeSLOBreach, Subject: slo.ObjShedBudget})
	recovers := rec.Query(recorder.Filter{Type: recorder.TypeSLORecover, Subject: slo.ObjShedBudget})
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
	if evs := rec.Query(recorder.Filter{Episode: breaches[0].Episode, Type: recorder.TypeOverdrawDetect}); len(evs) == 0 {
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

	// Derived headroom series exist per UPS, and the registry sampler
	// scraped controller metrics into the same store.
	var haveHeadroom, haveScraped bool
	for _, name := range store.Names() {
		if strings.HasPrefix(name, slo.SeriesUPSHeadroom+";") {
			haveHeadroom = true
		}
		if strings.HasPrefix(name, "flex_controller_") {
			haveScraped = true
		}
	}
	if !haveHeadroom {
		t.Fatalf("no per-UPS headroom series; have %v", store.Names())
	}
	if !haveScraped {
		t.Fatalf("sampler scraped no controller metrics; have %v", store.Names())
	}
}
