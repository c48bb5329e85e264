package workload

import (
	"fmt"
	"math"
	"math/rand"

	"flex/internal/power"
)

// SizeWeight is a deployment size (in racks) with a relative sampling
// weight.
type SizeWeight struct {
	Racks  int
	Weight float64
}

// TraceConfig parameterizes the synthetic short-term-demand generator. The
// defaults (see DefaultTraceConfig) reproduce the statistics the paper
// publishes about Microsoft's deployment traces (§V-A): deployments of
// mostly 20 racks with a few 10s and 5s, rack allocations around
// 14.4–17.2kW, a 13/56/31 category mix by power, flex power at 75–85% of
// allocated rack power, and total demand at 115% of the room's provisioned
// power.
type TraceConfig struct {
	// TargetDemand is the total power demand to generate.
	TargetDemand power.Watts
	// CategoryShares is the demanded power fraction per category,
	// indexed by Category. Must sum to ~1.
	CategoryShares [3]float64
	// Sizes are the deployment sizes and their weights.
	Sizes []SizeWeight
	// RackPowers are the possible per-rack power allocations, sampled
	// uniformly.
	RackPowers []power.Watts
	// FlexPowerMin/Max bound the flex power fraction for cap-able
	// deployments (sampled uniformly).
	FlexPowerMin, FlexPowerMax float64
	// MaxDeploymentRacks, when positive, splits any deployment larger than
	// this into smaller ones (the §V-A deployment-size sensitivity study).
	MaxDeploymentRacks int
	// WorkloadsPerCategory controls how many distinct named workloads each
	// category's deployments are spread across (>= 1).
	WorkloadsPerCategory int
}

// DefaultTraceConfig returns the paper's evaluation configuration for a
// room with the given provisioned power.
func DefaultTraceConfig(provisioned power.Watts) TraceConfig {
	return TraceConfig{
		TargetDemand:   power.Watts(float64(provisioned) * 1.15),
		CategoryShares: [3]float64{0.13, 0.56, 0.31},
		Sizes: []SizeWeight{
			{Racks: 20, Weight: 0.7},
			{Racks: 10, Weight: 0.2},
			{Racks: 5, Weight: 0.1},
		},
		RackPowers:           []power.Watts{14.4 * power.KW, 17.2 * power.KW},
		FlexPowerMin:         0.75,
		FlexPowerMax:         0.85,
		WorkloadsPerCategory: 3,
	}
}

// Validate checks the configuration.
func (c TraceConfig) Validate() error {
	if c.TargetDemand <= 0 {
		return fmt.Errorf("workload: target demand must be positive")
	}
	sum := 0.0
	for _, s := range c.CategoryShares {
		if s < 0 {
			return fmt.Errorf("workload: negative category share")
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: category shares sum to %.3f, want 1", sum)
	}
	if len(c.Sizes) == 0 {
		return fmt.Errorf("workload: no deployment sizes")
	}
	for _, s := range c.Sizes {
		if s.Racks <= 0 || s.Weight < 0 {
			return fmt.Errorf("workload: invalid size %+v", s)
		}
	}
	if len(c.RackPowers) == 0 {
		return fmt.Errorf("workload: no rack powers")
	}
	if c.FlexPowerMin <= 0 || c.FlexPowerMax >= 1 || c.FlexPowerMin > c.FlexPowerMax {
		return fmt.Errorf("workload: flex power range [%.2f,%.2f] outside (0,1)", c.FlexPowerMin, c.FlexPowerMax)
	}
	if c.WorkloadsPerCategory < 1 {
		return fmt.Errorf("workload: WorkloadsPerCategory must be >= 1")
	}
	return nil
}

// workloadNames are the synthetic workload identities, indexed by Category.
var workloadNames = [...][]string{
	SoftwareRedundant:      {"websearch", "analytics", "indexer", "mlbatch", "exchange"},
	NonRedundantCapable:    {"vmservice", "fp-vms", "appservice", "sqlpool", "functions"},
	NonRedundantNonCapable: {"gpucluster", "storage", "netappliance", "hsm", "cache"},
}

// GenerateTrace produces a short-term-demand deployment trace following
// cfg, using rng for all randomness. Deployments are generated until the
// per-category power targets are met; category assignment always picks the
// category with the largest remaining deficit so realized shares track
// CategoryShares closely.
func GenerateTrace(cfg TraceConfig, rng *rand.Rand) ([]Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	remaining := [3]power.Watts{}
	for c, share := range cfg.CategoryShares {
		remaining[c] = power.Watts(float64(cfg.TargetDemand) * share)
	}
	totalWeight := 0.0
	for _, s := range cfg.Sizes {
		totalWeight += s.Weight
	}
	out := make([]Deployment, 0, expectedDeployments(cfg, totalWeight))
	id := 0
	for remaining[0] > 0 || remaining[1] > 0 || remaining[2] > 0 {
		// Category with the largest remaining deficit.
		cat := Category(0)
		for c := 1; c < 3; c++ {
			if remaining[c] > remaining[cat] {
				cat = Category(c)
			}
		}
		racks := sampleSize(cfg.Sizes, totalWeight, rng)
		rackPow := cfg.RackPowers[rng.Intn(len(cfg.RackPowers))]
		names := workloadNames[cat]
		name := names[rng.Intn(min(cfg.WorkloadsPerCategory, len(names)))]
		flexFrac := 0.0
		switch cat {
		case NonRedundantCapable:
			flexFrac = cfg.FlexPowerMin + rng.Float64()*(cfg.FlexPowerMax-cfg.FlexPowerMin)
		case NonRedundantNonCapable:
			flexFrac = 1
		}
		for _, r := range splitRacks(racks, cfg.MaxDeploymentRacks) {
			d := Deployment{
				ID:                id,
				Workload:          name,
				Category:          cat,
				Racks:             r,
				PowerPerRack:      rackPow,
				FlexPowerFraction: flexFrac,
			}
			id++
			out = append(out, d)
			remaining[cat] -= d.TotalPower()
		}
	}
	return out, nil
}

// expectedDeployments sizes GenerateTrace's output so that it is written
// once: the target over the mean deployment power (mean racks × mean rack
// power), times the chunks a deployment splits into, with slack for the
// sampling spread (2√n) and each category's last deployment, which
// overshoots its target. 0 when that is not a positive int32: the output
// then grows as it is written.
func expectedDeployments(cfg TraceConfig, totalWeight float64) int {
	var racks, chunks, rackPow float64
	for _, s := range cfg.Sizes {
		w := s.Weight / totalWeight
		racks += w * float64(s.Racks)
		c := 1
		if m := cfg.MaxDeploymentRacks; m > 0 {
			c = (s.Racks + m - 1) / m
		}
		chunks += w * float64(c)
	}
	for _, p := range cfg.RackPowers {
		rackPow += float64(p) / float64(len(cfg.RackPowers))
	}
	n := float64(cfg.TargetDemand) / (racks * rackPow) * chunks
	if !(n > 0 && n < math.MaxInt32) {
		return 0
	}
	return int(n+2*math.Sqrt(n)) + 3
}

func sampleSize(sizes []SizeWeight, totalWeight float64, rng *rand.Rand) int {
	x := rng.Float64() * totalWeight
	for _, s := range sizes {
		if x < s.Weight {
			return s.Racks
		}
		x -= s.Weight
	}
	return sizes[len(sizes)-1].Racks
}

// splitRacks splits a deployment of racks into chunks of at most max racks
// (max <= 0 disables splitting), mirroring the paper's deployment-size
// study ("we broke any 20-rack deployments into two deployments of 10").
func splitRacks(racks, max int) []int {
	if max <= 0 || racks <= max {
		return []int{racks}
	}
	var out []int
	for racks > 0 {
		n := min(racks, max)
		out = append(out, n)
		racks -= n
	}
	return out
}

// Shuffle returns a copy of trace with deployment order permuted by rng,
// reassigning IDs to match the new order. The paper shuffles each trace 10
// times to study sensitivity to deployment order.
func Shuffle(trace []Deployment, rng *rand.Rand) []Deployment {
	out := make([]Deployment, len(trace))
	copy(out, trace)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].ID = i
	}
	return out
}

// RegionMix is the workload category distribution of one cloud region
// (paper Figure 3), as power fractions.
type RegionMix struct {
	Region string
	Shares [3]float64 // indexed by Category
}

// Figure3Regions returns a synthetic 4-region distribution whose mean is
// exactly the paper's published average mix (13% software-redundant, 56%
// non-redundant cap-able, 31% non-redundant non-cap-able). Per-region
// values are not published; these are representative.
//
//flex:keep EXPERIMENTS.md "Figure 3" is computed from it; BenchmarkFigure3_WorkloadDistribution prints it
func Figure3Regions() []RegionMix {
	return []RegionMix{
		{Region: "Region-1", Shares: [3]float64{0.15, 0.55, 0.30}},
		{Region: "Region-2", Shares: [3]float64{0.10, 0.60, 0.30}},
		{Region: "Region-3", Shares: [3]float64{0.18, 0.50, 0.32}},
		{Region: "Region-4", Shares: [3]float64{0.09, 0.59, 0.32}},
	}
}
