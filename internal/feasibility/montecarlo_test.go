package feasibility

import (
	"testing"
	"time"

	"flex/internal/power"
)

func TestSimulateYearsValidation(t *testing.T) {
	p := DefaultMonteCarloParams()
	p.Years = 0
	if _, err := SimulateYears(p); err == nil {
		t.Error("expected error for zero years")
	}
	p = DefaultMonteCarloParams()
	p.Profile = nil
	if _, err := SimulateYears(p); err == nil {
		t.Error("expected error for empty profile")
	}
	p = DefaultMonteCarloParams()
	p.Design = power.Redundancy{X: 2, Y: 2}
	if _, err := SimulateYears(p); err == nil {
		t.Error("expected error for bad design")
	}
}

func TestSimulateYearsMatchesPaperHeadlines(t *testing.T) {
	p := DefaultMonteCarloParams()
	p.Years = 300
	res, err := SimulateYears(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hours != 300*8760 {
		t.Fatalf("hours = %d", res.Hours)
	}
	// Maintenance time ≈ (1 + 40) h/yr within sampling noise.
	perYear := float64(res.MaintenanceHours) / 300
	if perYear < 25 || perYear > 60 {
		t.Fatalf("maintenance %0.1f h/yr, want ≈41", perYear)
	}
	// Paper headline: ≥4 nines of action-free operation.
	if res.NoActionNines < 4 {
		t.Fatalf("no-action nines = %.2f, want ≥ 4", res.NoActionNines)
	}
	// SR availability at least 4 nines.
	if res.SRNines < 4 {
		t.Fatalf("SR nines = %.2f, want ≥ 4", res.SRNines)
	}
	// Consistency: splits add up.
	if res.ThrottleOnlyHours+res.SRShutdownHours != res.ActionHours {
		t.Fatal("action hour split inconsistent")
	}
	if res.ActionHours > res.MaintenanceHours {
		t.Fatal("actions without maintenance")
	}
}

func TestSimulateYearsSchedulingMatters(t *testing.T) {
	// Scheduling planned maintenance into quiet windows (the paper's §III
	// argument) must dramatically cut corrective-action hours vs placing
	// the same 40 h/yr at random times.
	sched := DefaultMonteCarloParams()
	sched.Years = 150
	rand := sched
	rand.SchedulePlanned = false
	rand.Seed = 2
	rs, err := SimulateYears(sched)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SimulateYears(rand)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ActionHours <= rs.ActionHours {
		t.Fatalf("random scheduling (%d action hours) should exceed window scheduling (%d)",
			rr.ActionHours, rs.ActionHours)
	}
	if rr.NoActionNines >= 4 {
		t.Fatalf("random planned maintenance should break 4 nines, got %.2f", rr.NoActionNines)
	}
}

func TestSimulateYearsAgreesWithAnalyticModel(t *testing.T) {
	// The Monte Carlo result and the closed-form Analyze must agree on
	// the order of magnitude of the action probability when fed matched
	// assumptions (unplanned events only; same utilization distribution).
	mc := DefaultMonteCarloParams()
	mc.Years = 500
	mc.PlannedHoursPerYear = 0
	res, err := SimulateYears(mc)
	if err != nil {
		t.Fatal(err)
	}
	probSim := float64(res.ActionHours) / float64(res.Hours)
	// Analytic counterpart: P(maintenance) × P(util > 0.75) under the
	// profile+noise distribution.
	samples := make([]float64, 0, len(mc.Profile)*10)
	for rep := 0; rep < 10; rep++ {
		for _, u := range mc.Profile {
			samples = append(samples, u)
		}
	}
	emp, err := NewEmpiricalUtilization(samples)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(Params{
		Design:                   mc.Design,
		UnplannedDowntimePerYear: time.Hour,
		PlannedDowntimePerYear:   0,
		PlannedSchedulable:       true,
		Utilization:              emp,
		CapableShare:             mc.CapableShare,
		SoftwareRedundantShare:   mc.SRShare,
		ThrottleDepth:            mc.ThrottleDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both tiny probabilities; require the same order of magnitude
	// (within 10× — the noise model differs slightly).
	if probSim > 0 && a.ProbActionNeeded > 0 {
		ratio := probSim / a.ProbActionNeeded
		if ratio > 10 || ratio < 0.1 {
			t.Fatalf("simulated %.3g vs analytic %.3g (ratio %.2f)", probSim, a.ProbActionNeeded, ratio)
		}
	}
}
