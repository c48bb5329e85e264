package flex

import (
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

// Online placement: millisecond admission with warm ILP state. See
// internal/placement/online and DESIGN.md "Online placement".
type (
	// OnlinePlacement is the online admission policy — one deployment at a
	// time on an allocation-free hot path, with sampled-scenario scoring
	// and a warm background exact re-solve.
	OnlinePlacement = online.Online
	// OnlinePlacementConfig parameterizes the online admitter.
	OnlinePlacementConfig = online.Config
)

// OnlinePlacementOption customizes NewOnlinePlacement.
type OnlinePlacementOption func(*OnlinePlacementConfig)

// WithPlacementSeed seeds the sampled future-arrival stream; with
// WithSyncResolve the whole placement is reproducible for a fixed seed.
func WithPlacementSeed(seed int64) OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) { c.Seed = seed }
}

// WithSyncResolve runs re-solves inline on the admission loop instead of
// in a background goroutine — deterministic placements, for tests and
// smokes.
func WithSyncResolve() OnlinePlacementOption {
	return func(c *OnlinePlacementConfig) { c.SyncResolve = true }
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
