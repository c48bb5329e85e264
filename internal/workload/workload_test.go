package workload

import (
	"math"
	"testing"

	"flex/internal/power"
)

func TestCategoryString(t *testing.T) {
	if SoftwareRedundant.String() != "software-redundant" {
		t.Error("SoftwareRedundant string")
	}
	if NonRedundantCapable.String() != "non-redundant-capable" {
		t.Error("NonRedundantCapable string")
	}
	if NonRedundantNonCapable.String() != "non-redundant-non-capable" {
		t.Error("NonRedundantNonCapable string")
	}
	if Category(9).String() != "Category(9)" {
		t.Error("unknown category string")
	}
}

func TestCategoryShaveable(t *testing.T) {
	if !SoftwareRedundant.Shaveable() || !NonRedundantCapable.Shaveable() {
		t.Error("SR and cap-able must be shaveable")
	}
	if NonRedundantNonCapable.Shaveable() {
		t.Error("non-cap-able must not be shaveable")
	}
}

func dep(cat Category, racks int, perRack power.Watts, flexFrac float64) Deployment {
	return Deployment{ID: 1, Workload: "w", Category: cat, Racks: racks,
		PowerPerRack: perRack, FlexPowerFraction: flexFrac}
}

func TestDeploymentValidate(t *testing.T) {
	cases := []struct {
		name string
		d    Deployment
		ok   bool
	}{
		{"valid SR", dep(SoftwareRedundant, 20, 14.4*power.KW, 0), true},
		{"valid capable", dep(NonRedundantCapable, 10, 17.2*power.KW, 0.8), true},
		{"valid non-capable", dep(NonRedundantNonCapable, 5, 14.4*power.KW, 1), true},
		{"zero racks", dep(SoftwareRedundant, 0, 14.4*power.KW, 0), false},
		{"zero power", dep(SoftwareRedundant, 5, 0, 0), false},
		{"SR with flex", dep(SoftwareRedundant, 5, power.KW, 0.8), false},
		{"capable flex 0", dep(NonRedundantCapable, 5, power.KW, 0), false},
		{"capable flex 1", dep(NonRedundantCapable, 5, power.KW, 1), false},
		{"non-capable flex 0.5", dep(NonRedundantNonCapable, 5, power.KW, 0.5), false},
		{"flex > 1", dep(NonRedundantCapable, 5, power.KW, 1.5), false},
		{"unknown category", dep(Category(7), 5, power.KW, 0.5), false},
		{"negative power", dep(SoftwareRedundant, 5, -power.KW, 0), false},
		{"NaN power", dep(SoftwareRedundant, 5, power.Watts(math.NaN()), 0), false},
		{"infinite power", dep(SoftwareRedundant, 5, power.Watts(math.Inf(1)), 0), false},
		{"capable flex NaN", dep(NonRedundantCapable, 5, power.KW, math.NaN()), false},
		{"negative flex", dep(SoftwareRedundant, 5, power.KW, -0.1), false},
	}
	for _, c := range cases {
		if err := c.d.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
		if c.d.Valid() != c.ok {
			t.Errorf("%s: Valid() = %v, want %v", c.name, c.d.Valid(), c.ok)
		}
	}
}

func TestCapPowerEquation3(t *testing.T) {
	// Software-redundant: CapPow = 0.
	sr := dep(SoftwareRedundant, 10, 10*power.KW, 0)
	if sr.CapPower() != 0 {
		t.Errorf("SR CapPower = %v, want 0", sr.CapPower())
	}
	if sr.ShaveablePower() != 100*power.KW {
		t.Errorf("SR shaveable = %v, want 100kW", sr.ShaveablePower())
	}
	// Cap-able: CapPow = FlexPow.
	ca := dep(NonRedundantCapable, 10, 10*power.KW, 0.8)
	if ca.CapPower() != 80*power.KW {
		t.Errorf("capable CapPower = %v, want 80kW", ca.CapPower())
	}
	if ca.ShaveablePower() != 20*power.KW {
		t.Errorf("capable shaveable = %v, want 20kW", ca.ShaveablePower())
	}
	if ca.ThrottleRecoverablePower() != 20*power.KW {
		t.Errorf("capable throttle-recoverable = %v, want 20kW", ca.ThrottleRecoverablePower())
	}
	// Non-cap-able: CapPow = Pow.
	nc := dep(NonRedundantNonCapable, 10, 10*power.KW, 1)
	if nc.CapPower() != nc.TotalPower() {
		t.Errorf("non-capable CapPower = %v, want %v", nc.CapPower(), nc.TotalPower())
	}
	if nc.ShaveablePower() != 0 {
		t.Errorf("non-capable shaveable = %v, want 0", nc.ShaveablePower())
	}
	if sr.ThrottleRecoverablePower() != 0 || nc.ThrottleRecoverablePower() != 0 {
		t.Error("only cap-able deployments have throttle-recoverable power")
	}
}

func TestTotalPowerOfAndByCategory(t *testing.T) {
	ds := []Deployment{
		dep(SoftwareRedundant, 10, 10*power.KW, 0),
		dep(NonRedundantCapable, 5, 20*power.KW, 0.8),
	}
	if got := TotalPowerOf(ds); got != 200*power.KW {
		t.Errorf("TotalPowerOf = %v, want 200kW", got)
	}
	by := PowerByCategory(ds)
	if by[SoftwareRedundant] != 100*power.KW || by[NonRedundantCapable] != 100*power.KW {
		t.Errorf("PowerByCategory = %v", by)
	}
}

func TestDeploymentString(t *testing.T) {
	s := dep(SoftwareRedundant, 10, 14.4*power.KW, 0).String()
	if s == "" {
		t.Fatal("empty deployment string")
	}
}

func TestPowerPreservedBySplitConfig(t *testing.T) {
	// A deployment's power math must be linear in racks so that splitting
	// (the §V-A size study) preserves totals.
	whole := dep(NonRedundantCapable, 20, 14.4*power.KW, 0.8)
	halfA := dep(NonRedundantCapable, 10, 14.4*power.KW, 0.8)
	if math.Abs(float64(whole.TotalPower()-2*halfA.TotalPower())) > 1e-9 {
		t.Error("TotalPower not linear in racks")
	}
	if math.Abs(float64(whole.CapPower()-2*halfA.CapPower())) > 1e-9 {
		t.Error("CapPower not linear in racks")
	}
}
