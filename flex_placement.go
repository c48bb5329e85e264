package flex

import (
	"time"

	"flex/internal/placement"
	"flex/internal/placement/online"
)

// Placement types and policies.
type (
	// Room couples a topology with rack space (and optional cooling).
	Room = placement.Room
	// Placement is a policy's result with its safety/metric methods.
	Placement = placement.Placement
	// Policy places a demand trace into a room.
	Policy = placement.Policy
	// FlexOffline is the paper's ILP placement policy.
	FlexOffline = placement.FlexOffline
	// RandomPolicy places on a uniformly random feasible PDU-pair.
	RandomPolicy = placement.Random
	// RoundRobinPolicy cycles PDU-pairs with one shared pointer.
	RoundRobinPolicy = placement.RoundRobin
	// BalancedRoundRobinPolicy balances each category across PDU-pairs.
	BalancedRoundRobinPolicy = placement.BalancedRoundRobin
	// FirstFitPolicy concentrates load (the paper's counter-example).
	FirstFitPolicy = placement.FirstFit
)

// RoomOption customizes NewPlacementRoom.
type RoomOption func(*roomOptions)

type roomOptions struct {
	slotsPerPair       int
	reserveUtilization float64
	partialReserve     bool
}

// WithSlotsPerPair sets the uniform rack-slot count per PDU-pair. The
// default is the paper's 60 slots (18 pairs × 60 = 1080 racks for the
// §V-A room).
func WithSlotsPerPair(n int) RoomOption {
	return func(o *roomOptions) { o.slotsPerPair = n }
}

// WithReserveUtilization allocates only the given fraction of the
// reserved power (§VI: Microsoft's first production deployments use 42%,
// where throttling alone covers every failover). The default allocates
// the full reserve — the paper's headline zero-reserved-power operating
// point.
func WithReserveUtilization(fraction float64) RoomOption {
	return func(o *roomOptions) {
		o.reserveUtilization = fraction
		o.partialReserve = true
	}
}

// NewPlacementRoom builds a placement room from a topology plus options,
// defaulting to the paper's 60 slots per PDU-pair with the full reserve
// allocated.
func NewPlacementRoom(topo *Topology, opts ...RoomOption) (*Room, error) {
	o := roomOptions{slotsPerPair: 60}
	for _, opt := range opts {
		opt(&o)
	}
	if o.partialReserve {
		return placement.PartialReserveRoom(topo, o.slotsPerPair, o.reserveUtilization)
	}
	return placement.NewRoom(topo, o.slotsPerPair)
}

// PaperRoom is the paper's §V-A evaluation room (9.6MW, 4N/3, 18 pairs).
func PaperRoom() *Room { return placement.PaperRoom() }

// EmulationRoom is the paper's §V-C emulation room (4.8MW, 360 racks).
func EmulationRoom() *Room { return placement.EmulationRoom() }

// FlexOfflineShort/Long/Oracle are the paper's three batching horizons.
func FlexOfflineShort() FlexOffline  { return placement.FlexOfflineShort() }
func FlexOfflineLong() FlexOffline   { return placement.FlexOfflineLong() }
func FlexOfflineOracle() FlexOffline { return placement.FlexOfflineOracle() }

// Online placement (ROADMAP item 2): millisecond admission with warm ILP
// state. See internal/placement/online.
type (
	// OnlinePlacement is the online admission policy — one deployment at a
	// time on an allocation-free hot path, with sampled-scenario scoring
	// and a warm background exact re-solve.
	OnlinePlacement = online.Online
	// OnlinePlacementConfig parameterizes the online admitter.
	OnlinePlacementConfig = online.Config
	// OnlineAdmitter is the incremental admission engine itself, for
	// callers that drive Admit/Remove directly instead of through a
	// Policy trace.
	OnlineAdmitter = online.Admitter
	// OnlinePlacementMetrics is the admitter's observability surface.
	OnlinePlacementMetrics = online.Metrics
	// OnlineSnapshot summarizes an admitter's committed state.
	OnlineSnapshot = online.Snapshot
)

// OnlinePlacementOption customizes NewOnlinePlacement/NewOnlineAdmitter.
type OnlinePlacementOption func(*OnlinePlacementConfig)

// WithPlacementSeed seeds the sampled future-arrival stream; with
// WithSyncResolve the whole placement is reproducible for a fixed seed.
func WithPlacementSeed(seed int64) OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) { c.Seed = seed }
}

// WithScenarioSampling sets how many sampled future-arrival suffixes are
// scored per contested admission and how many arrivals deep each greedy
// completion looks. The defaults are 4 scenarios × 16 arrivals; a
// negative scenario count disables sampling (the solver-target deviation
// term still steers).
func WithScenarioSampling(scenarios, depth int) OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) {
		c.Scenarios = scenarios
		c.ScenarioDepth = depth
	}
}

// WithWarmResolve tunes the background exact re-solve: trigger every
// `every` admissions, bounded by `nodes` branch-and-bound nodes and
// `budget` wall time per solve. A negative `every` disables the warm
// solver.
func WithWarmResolve(every, nodes int, budget time.Duration) OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) {
		c.ResolveEvery = every
		c.ResolveNodes = nodes
		c.ResolveBudget = budget
	}
}

// WithSyncResolve runs re-solves inline on the admission loop instead of
// in a background goroutine — deterministic placements, for tests and
// smokes.
func WithSyncResolve() OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) { c.SyncResolve = true }
}

// WithOnlinePlacementConfig applies an arbitrary edit to the assembled
// OnlinePlacementConfig — the escape hatch for knobs without a dedicated
// option (metrics registry, scenario trace, solver workers).
func WithOnlinePlacementConfig(edit func(*OnlinePlacementConfig)) OnlinePlacementOption {
	return OnlinePlacementOption(edit)
}

// NewOnlinePlacement assembles the online admission policy. Without
// options it scores 4 sampled scenarios per contested admission and
// re-solves in the background every 16 admissions.
func NewOnlinePlacement(opts ...OnlinePlacementOption) OnlinePlacement {
	var cfg OnlinePlacementConfig
	for _, o := range opts {
		o(&cfg)
	}
	return OnlinePlacement{Config: cfg}
}

// NewOnlineAdmitter builds the incremental admission engine for a room,
// for callers that drive Admit/Remove directly (production admission
// endpoints, emulations) rather than placing a fixed trace.
func NewOnlineAdmitter(room *Room, opts ...OnlinePlacementOption) (*OnlineAdmitter, error) {
	var cfg OnlinePlacementConfig
	for _, o := range opts {
		o(&cfg)
	}
	return online.NewAdmitter(room, cfg)
}
