package workload

import "flex/internal/power"

// AverageMix returns the mean category shares across regions.
func AverageMix(regions []RegionMix) [3]float64 {
	var avg [3]float64
	if len(regions) == 0 {
		return avg
	}
	for _, r := range regions {
		for c := range avg {
			avg[c] += r.Shares[c]
		}
	}
	for c := range avg {
		avg[c] /= float64(len(regions))
	}
	return avg
}

// Shaveable reports whether Flex can recover any power from this category
// during a failover event.
func (c Category) Shaveable() bool { return c != NonRedundantNonCapable }

// TotalPowerOf sums the full power allocation of a slice of deployments.
func TotalPowerOf(ds []Deployment) power.Watts {
	var sum power.Watts
	for _, d := range ds {
		sum += d.TotalPower()
	}
	return sum
}

// PowerByCategory sums deployment power per category.
func PowerByCategory(ds []Deployment) map[Category]power.Watts {
	out := make(map[Category]power.Watts, 3)
	for _, d := range ds {
		out[d.Category] += d.TotalPower()
	}
	return out
}
