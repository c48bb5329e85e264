package feasibility

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"flex/internal/power"
)

func TestNormalUtilizationProbAbove(t *testing.T) {
	n := NormalUtilization{Mean: 0.8, Std: 0.1}
	if got := n.ProbAbove(0.8); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P(>mean) = %v, want 0.5", got)
	}
	if got := n.ProbAbove(0.5); got < 0.99 {
		t.Fatalf("P(>mean-3σ) = %v, want ≈1", got)
	}
	if got := n.ProbAbove(1.1); got > 0.01 {
		t.Fatalf("P(>mean+3σ) = %v, want ≈0", got)
	}
	// Degenerate σ=0: step function.
	d := NormalUtilization{Mean: 0.8}
	if d.ProbAbove(0.7) != 1 || d.ProbAbove(0.9) != 0 {
		t.Fatal("degenerate model should be a step")
	}
}

// EmpiricalUtilization models utilization from observed samples: the
// oracle the Monte Carlo simulation is held to.
type EmpiricalUtilization struct {
	sorted []float64
}

// NewEmpiricalUtilization builds a model from samples.
func NewEmpiricalUtilization(samples []float64) (*EmpiricalUtilization, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("feasibility: no samples")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &EmpiricalUtilization{sorted: s}, nil
}

// ProbAbove implements UtilizationModel.
func (e *EmpiricalUtilization) ProbAbove(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, x)
	// Count samples strictly above x.
	for i < len(e.sorted) && e.sorted[i] <= x {
		i++
	}
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

func TestEmpiricalUtilization(t *testing.T) {
	e, err := NewEmpiricalUtilization([]float64{0.6, 0.7, 0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ProbAbove(0.75); got != 0.5 {
		t.Fatalf("P(>0.75) = %v, want 0.5", got)
	}
	if got := e.ProbAbove(0.9); got != 0 {
		t.Fatalf("P(>max) = %v, want 0", got)
	}
	if got := e.ProbAbove(0.5); got != 1 {
		t.Fatalf("P(>min-) = %v, want 1", got)
	}
	if _, err := NewEmpiricalUtilization(nil); err == nil {
		t.Fatal("expected error for no samples")
	}
}

func TestAnalyzeDefaultMatchesPaper(t *testing.T) {
	a, err := Analyze(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// §II-A/§III: actions needed above the y/x failover budget.
	if math.Abs(a.ActionThreshold-0.75) > 1e-9 {
		t.Errorf("ActionThreshold = %v, want 0.75", a.ActionThreshold)
	}
	// Shutdown threshold is above the action threshold.
	if a.ShutdownThreshold <= a.ActionThreshold || a.ShutdownThreshold > 1 {
		t.Errorf("ShutdownThreshold = %v", a.ShutdownThreshold)
	}
	// Paper: 99.99% (4 nines) of the time no corrective actions needed.
	if a.NoActionNines < 3.9 {
		t.Errorf("NoActionNines = %v, want ≥ ~4", a.NoActionNines)
	}
	// Paper: P(SR shutdown) ≈ 0.005%.
	if a.ProbSRShutdown < 1e-5 || a.ProbSRShutdown > 2e-4 {
		t.Errorf("ProbSRShutdown = %v, want ≈5e-5", a.ProbSRShutdown)
	}
	// Paper: SR availability at least 4 nines.
	if a.SRNines < 4 {
		t.Errorf("SRNines = %v, want ≥ 4", a.SRNines)
	}
	if a.NonRedundantNines != 5 {
		t.Errorf("NonRedundantNines = %v, want 5", a.NonRedundantNines)
	}
}

func TestAnalyzePlannedMaintenanceMatters(t *testing.T) {
	p := DefaultParams()
	p.PlannedSchedulable = false
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := Analyze(DefaultParams())
	// Unschedulable planned maintenance (40h/yr vs 1h/yr) raises the
	// action probability by roughly 40×.
	if a.ProbActionNeeded <= sched.ProbActionNeeded*10 {
		t.Errorf("planned maintenance should dominate: %v vs %v",
			a.ProbActionNeeded, sched.ProbActionNeeded)
	}
	// This is exactly why the paper schedules planned maintenance into
	// low-utilization windows: availability would drop below 4 nines.
	if a.NoActionNines >= 4 {
		t.Errorf("unschedulable planned maintenance should break 4 nines, got %v", a.NoActionNines)
	}
}

func TestAnalyzeThresholdFormula(t *testing.T) {
	p := DefaultParams()
	p.CapableShare = 0.56
	p.ThrottleDepth = 0.20
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75 / (1 - 0.56*0.20)
	if math.Abs(a.ShutdownThreshold-want) > 1e-12 {
		t.Fatalf("ShutdownThreshold = %v, want %v", a.ShutdownThreshold, want)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	p := DefaultParams()
	p.Design = power.Redundancy{X: 3, Y: 3}
	if _, err := Analyze(p); err == nil {
		t.Error("expected error for bad design")
	}
	p = DefaultParams()
	p.Utilization = nil
	if _, err := Analyze(p); err == nil {
		t.Error("expected error for missing utilization model")
	}
	p = DefaultParams()
	p.CapableShare = 0.9
	p.SoftwareRedundantShare = 0.5
	if _, err := Analyze(p); err == nil {
		t.Error("expected error for shares > 1")
	}
	p = DefaultParams()
	p.ThrottleDepth = 0
	if _, err := Analyze(p); err == nil {
		t.Error("expected error for zero throttle depth")
	}
}

func TestAnalyzeMoreDowntimeLowersAvailability(t *testing.T) {
	p := DefaultParams()
	base, _ := Analyze(p)
	p.UnplannedDowntimePerYear = 10 * time.Hour
	worse, _ := Analyze(p)
	if worse.NoActionAvailability >= base.NoActionAvailability {
		t.Fatal("more downtime must lower availability")
	}
}
