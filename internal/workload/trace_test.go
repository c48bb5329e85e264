package workload

import (
	"math"
	"math/rand"
	"testing"

	"flex/internal/power"
)

func TestDefaultTraceConfigValid(t *testing.T) {
	cfg := DefaultTraceConfig(9.6 * power.MW)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.TargetDemand != power.Watts(9.6*power.MW)*1.15 {
		t.Errorf("TargetDemand = %v, want 115%% of provisioned", cfg.TargetDemand)
	}
}

func TestTraceConfigValidation(t *testing.T) {
	base := DefaultTraceConfig(power.MW)
	mutate := []struct {
		name string
		f    func(*TraceConfig)
	}{
		{"zero demand", func(c *TraceConfig) { c.TargetDemand = 0 }},
		{"bad shares sum", func(c *TraceConfig) { c.CategoryShares = [3]float64{0.5, 0.5, 0.5} }},
		{"negative share", func(c *TraceConfig) { c.CategoryShares = [3]float64{-0.2, 0.9, 0.3} }},
		{"no sizes", func(c *TraceConfig) { c.Sizes = nil }},
		{"bad size", func(c *TraceConfig) { c.Sizes = []SizeWeight{{Racks: 0, Weight: 1}} }},
		{"no rack powers", func(c *TraceConfig) { c.RackPowers = nil }},
		{"bad flex range", func(c *TraceConfig) { c.FlexPowerMin, c.FlexPowerMax = 0.9, 0.8 }},
		{"flex max 1", func(c *TraceConfig) { c.FlexPowerMax = 1.0 }},
		{"zero workloads", func(c *TraceConfig) { c.WorkloadsPerCategory = 0 }},
	}
	for _, m := range mutate {
		cfg := base
		m.f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

func TestGenerateTraceMatchesTargets(t *testing.T) {
	cfg := DefaultTraceConfig(9.6 * power.MW)
	rng := rand.New(rand.NewSource(42))
	trace, err := GenerateTrace(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// All deployments valid, IDs dense.
	for i, d := range trace {
		if err := d.Validate(); err != nil {
			t.Fatalf("deployment %d invalid: %v", i, err)
		}
		if d.ID != i {
			t.Fatalf("deployment %d has ID %d", i, d.ID)
		}
	}
	// Total demand meets the target (generator overshoots by at most one
	// deployment per category).
	total := TotalPowerOf(trace)
	if total < cfg.TargetDemand {
		t.Fatalf("total %v below target %v", total, cfg.TargetDemand)
	}
	maxDep := 20 * 17.2 * power.KW
	if total > cfg.TargetDemand+3*maxDep {
		t.Fatalf("total %v overshoots target %v too much", total, cfg.TargetDemand)
	}
	// Category mix tracks the configured shares within a few percent.
	by := PowerByCategory(trace)
	for c, share := range cfg.CategoryShares {
		got := float64(by[Category(c)]) / float64(total)
		if math.Abs(got-share) > 0.05 {
			t.Errorf("category %v share = %.3f, want ≈%.3f", Category(c), got, share)
		}
	}
	// Flex power fractions respect the configured range.
	for _, d := range trace {
		if d.Category == NonRedundantCapable &&
			(d.FlexPowerFraction < cfg.FlexPowerMin || d.FlexPowerFraction > cfg.FlexPowerMax) {
			t.Errorf("flex fraction %.3f outside [%.2f,%.2f]",
				d.FlexPowerFraction, cfg.FlexPowerMin, cfg.FlexPowerMax)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	cfg := DefaultTraceConfig(4.8 * power.MW)
	a, _ := GenerateTrace(cfg, rand.New(rand.NewSource(7)))
	b, _ := GenerateTrace(cfg, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("deployment %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestGenerateTraceAllocatesOnce: the output is sized from the expected
// deployment count, so a trace of ~132 000 deployments (100 000 of the
// largest asked for, as flexbench's admission-churn arrival stream does) is
// written into one allocation, and so is the paper room's.
func TestGenerateTraceAllocatesOnce(t *testing.T) {
	churn := DefaultTraceConfig(power.MW)
	churn.TargetDemand = 100000 * 20 * 17.2 * power.KW
	for _, cfg := range []TraceConfig{churn, DefaultTraceConfig(4.8 * power.MW), DefaultTraceConfig(9.6 * power.MW)} {
		rng := rand.New(rand.NewSource(1)) // one stream: every run draws a new trace
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := GenerateTrace(cfg, rng); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("GenerateTrace at a %v target allocated %.0f times a run, want 1", cfg.TargetDemand, allocs)
		}
	}
}

func TestGenerateTraceRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultTraceConfig(power.MW)
	cfg.TargetDemand = -1
	if _, err := GenerateTrace(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error")
	}
}

func TestGenerateTraceMaxDeploymentRacks(t *testing.T) {
	cfg := DefaultTraceConfig(9.6 * power.MW)
	cfg.MaxDeploymentRacks = 10
	trace, err := GenerateTrace(cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range trace {
		if d.Racks > 10 {
			t.Fatalf("deployment %v exceeds 10 racks", d)
		}
	}
}

func TestSplitRacks(t *testing.T) {
	cases := []struct {
		racks, max int
		want       []int
	}{
		{20, 10, []int{10, 10}},
		{20, 0, []int{20}},
		{20, 25, []int{20}},
		{17, 5, []int{5, 5, 5, 2}},
	}
	for _, c := range cases {
		got := splitRacks(c.racks, c.max)
		if len(got) != len(c.want) {
			t.Errorf("splitRacks(%d,%d) = %v, want %v", c.racks, c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitRacks(%d,%d) = %v, want %v", c.racks, c.max, got, c.want)
				break
			}
		}
	}
}

func TestShufflePermutesAndReassignsIDs(t *testing.T) {
	cfg := DefaultTraceConfig(4.8 * power.MW)
	trace, _ := GenerateTrace(cfg, rand.New(rand.NewSource(1)))
	shuffled := Shuffle(trace, rand.New(rand.NewSource(99)))
	if len(shuffled) != len(trace) {
		t.Fatal("length changed")
	}
	if TotalPowerOf(shuffled) != TotalPowerOf(trace) {
		t.Fatal("total power changed")
	}
	for i, d := range shuffled {
		if d.ID != i {
			t.Fatalf("shuffled[%d].ID = %d", i, d.ID)
		}
	}
	// Original untouched (IDs still dense ascending and same order).
	for i, d := range trace {
		if d.ID != i {
			t.Fatal("Shuffle mutated its input")
		}
	}
}

func TestFigure3RegionsAverageIsPaperMix(t *testing.T) {
	avg := AverageMix(Figure3Regions())
	want := [3]float64{0.13, 0.56, 0.31}
	for c := range avg {
		if math.Abs(avg[c]-want[c]) > 1e-9 {
			t.Errorf("average share[%d] = %.4f, want %.2f", c, avg[c], want[c])
		}
	}
	// Every region's shares sum to 1.
	for _, r := range Figure3Regions() {
		sum := r.Shares[0] + r.Shares[1] + r.Shares[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s shares sum to %.4f", r.Region, sum)
		}
	}
}

func TestAverageMixEmpty(t *testing.T) {
	if AverageMix(nil) != [3]float64{} {
		t.Fatal("AverageMix(nil) should be zero")
	}
}
