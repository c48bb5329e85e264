package online

import (
	"flex/internal/obs"
	"flex/internal/placement"
)

// reason is why an admission was refused: the label of
// flex_online_rejections_total. A room limit refuses under its own
// placement.Limit, whose order makes "the limit that stopped the combo that
// got furthest" a max. reasonInvalid — a malformed deployment, a duplicate
// ID, a full committed list — is the admitter's own; it takes the index of
// placement.Fits, which refuses nothing.
type reason = placement.Limit

const (
	reasonInvalid = placement.Fits
	numReasons    = placement.OverPairRating + 1
)

var reasonNames = [numReasons]string{
	"invalid", "cooling", "diversity_reserve", "slots", "eq2_normal", "eq4_failover", "pair_rating",
}

// Metrics is the admitter's observability surface. All fields are
// pre-bound obs children so the hot path updates them without label
// lookups or allocation. Construct with NewMetrics — zero-value obs
// histograms panic on Observe.
type Metrics struct {
	// Admitted / Rejected count admission decisions; their rates give
	// decisions/sec and the reject rate.
	Admitted *obs.Counter
	Rejected *obs.Counter
	// rejections splits Rejected by reason; the children sum to it.
	rejections [numReasons]*obs.Counter
	// Removed counts committed deployments freed via Remove.
	Removed *obs.Counter
	// PlacedWatts is the committed allocated power.
	PlacedWatts *obs.Gauge
	// Latency is the hot-path admission latency in seconds, observed by
	// the Online policy around each Admit call (never on the proven
	// allocation-free path itself).
	Latency *obs.Histogram
	// Resolves counts background exact re-solves; ResolveImprovements
	// counts the subset whose exact plan beat the warm incumbent it
	// started from.
	Resolves            *obs.Counter
	ResolveImprovements *obs.Counter
	// ResolveObjective is the planned placed power (watts) of the last
	// published exact plan.
	ResolveObjective *obs.Gauge
}

// NewMetrics registers the online-placement metrics on r.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{
		Admitted: r.Counter("flex_online_admitted_total",
			"Deployments admitted by the online placement hot path."),
		Rejected: r.Counter("flex_online_rejected_total",
			"Deployments rejected by the online placement hot path."),
		Removed: r.Counter("flex_online_removed_total",
			"Committed deployments freed via Remove."),
		PlacedWatts: r.Gauge("flex_online_placed_watts",
			"Committed allocated power in the online admitter."),
		Latency: r.Histogram("flex_online_admit_seconds",
			"Hot-path admission latency.",
			[]float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 5e-3, 1e-2}),
		Resolves: r.Counter("flex_online_resolves_total",
			"Warm background exact re-solves completed."),
		ResolveImprovements: r.Counter("flex_online_resolve_improvements_total",
			"Background re-solves whose exact plan improved on the warm incumbent."),
		ResolveObjective: r.Gauge("flex_online_resolve_objective_watts",
			"Planned placed power of the last published exact plan."),
	}
	why := r.CounterVec("flex_online_rejections_total",
		"Deployments rejected by the online placement hot path, by the check that refused them (per-combo checks: the one that stopped the combo that got furthest).",
		"reason")
	for i, name := range reasonNames {
		m.rejections[i] = why.With(name)
	}
	return m
}
