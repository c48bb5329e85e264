package cost

import (
	"math"
	"testing"

	"flex/internal/power"
)

func TestComputePaperNumbers(t *testing.T) {
	// Paper §I: a 128MW site saves $211M at $5/W and $422M at $10/W for
	// 4N/3 (the paper rounds x/y−1 to 33%; the exact fraction is 1/3).
	s, err := Compute(power.Redundancy{X: 4, Y: 3}, 128*power.MW, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ExtraServerFraction-1.0/3.0) > 1e-12 {
		t.Errorf("ExtraServerFraction = %v, want 1/3", s.ExtraServerFraction)
	}
	if math.Abs(float64(s.ExtraPower)-128e6/3) > 1 {
		t.Errorf("ExtraPower = %v, want ≈42.67MW", s.ExtraPower)
	}
	// $213.3M exact vs the paper's rounded $211M: within 1.5%.
	if s.Dollars < 205e6 || s.Dollars > 220e6 {
		t.Errorf("savings at $5/W = $%.1fM, want ≈$211M", s.Dollars/1e6)
	}
	s10, _ := Compute(power.Redundancy{X: 4, Y: 3}, 128*power.MW, 10)
	if math.Abs(s10.Dollars-2*s.Dollars) > 1 {
		t.Error("savings should scale linearly with $/W")
	}
	if s10.Dollars < 410e6 || s10.Dollars > 440e6 {
		t.Errorf("savings at $10/W = $%.1fM, want ≈$422M", s10.Dollars/1e6)
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := Compute(power.Redundancy{X: 3, Y: 3}, power.MW, 5); err == nil {
		t.Error("expected error for invalid design")
	}
	if _, err := Compute(power.Redundancy{X: 4, Y: 3}, 0, 5); err == nil {
		t.Error("expected error for zero site power")
	}
	if _, err := Compute(power.Redundancy{X: 4, Y: 3}, power.MW, 0); err == nil {
		t.Error("expected error for zero $/W")
	}
}

func TestCompareDesigns(t *testing.T) {
	ds := CompareDesigns()
	if len(ds) != 5 {
		t.Fatalf("designs = %d", len(ds))
	}
	// 2N reserves half; 4N/3 reserves a quarter; reserved fraction must
	// decrease as designs get more distributed.
	for i := 1; i < len(ds); i++ {
		if ds[i].ReservedFraction >= ds[i-1].ReservedFraction {
			t.Errorf("reserved fraction not decreasing: %v", ds)
		}
	}
	if math.Abs(ds[0].ReservedFraction-0.5) > 1e-12 {
		t.Errorf("2N reserved = %v, want 0.5", ds[0].ReservedFraction)
	}
	var paper *DesignComparison
	for i := range ds {
		if ds[i].Name == "4N/3 (paper)" {
			paper = &ds[i]
		}
	}
	if paper == nil {
		t.Fatal("4N/3 missing")
	}
	if math.Abs(paper.ReservedFraction-0.25) > 1e-12 ||
		math.Abs(paper.ExtraServerFraction-1.0/3.0) > 1e-12 ||
		math.Abs(paper.WorstFailoverLoad-4.0/3.0) > 1e-12 {
		t.Errorf("4N/3 comparison = %+v", paper)
	}
}
