// Package fleet scales Flex-Online from one room to a datacenter fleet:
// one controller shard per UPS fault domain (room), telemetry fanned into
// per-shard bounded ingest queues with batching and backpressure, and a
// global aggregator folding per-shard snapshots into fleet-wide stranded
// power (Eq. 5), committed headroom, and per-room health.
//
// The sharding follows the hierarchy the multi-timescale VPP control
// literature argues for: fast local loops per fault domain (each shard
// keeps the paper's 10s FlexLatencyBudget on its own), with a slower
// aggregation layer on top for the fleet-level view. Each shard owns its
// telemetry views, controllers, and ingest subscriptions, and shares only
// the ingest bus's lock for the length of one batch copy — so one slow or
// saturated room can drop its own samples (drop-oldest, counted) without
// ever stalling a neighbor.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/rackmgr"
	"flex/internal/telemetry"
)

// Config assembles a Fleet. Zero values select sensible defaults.
type Config struct {
	// Name identifies the fleet in metrics and events (default "fleet").
	Name string
	// Clock stamps dequeued samples (default wall clock).
	Clock clock.Clock
	// QueueDepth is each shard's per-topic ingest buffer in samples
	// (default 1024). When a shard falls behind, the oldest samples in its
	// queue are dropped and counted — backpressure never propagates to
	// the publisher or to other shards. It must hold one poll round:
	// AddRoom refuses a room with more racks or UPSes than this.
	QueueDepth int
	// Obs, when non-nil, registers fleet metrics (per-room gauges and
	// fleet totals) and is handed to each shard's controllers.
	Obs *obs.Registry
	// Recorder, when non-nil, is threaded to every shard's controllers so
	// fleet-wide episodes land in one causal event log.
	Recorder *recorder.Recorder
}

func (c *Config) fillDefaults() {
	if c.Name == "" {
		c.Name = "fleet"
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
}

// freshness is how stale a shard's UPS telemetry may get before the shard
// reports degraded: beyond three missed 1.5s poll rounds the failover
// estimate is drifting.
const freshness = 5 * time.Second

// RoomConfig describes one UPS fault domain joining the fleet.
type RoomConfig struct {
	// Name is the room's unique identity; it becomes the shard name, the
	// ingest topic suffix, and the metrics label.
	Name string
	// Topo is the room's power topology.
	Topo *power.Topology
	// Racks are the room's managed racks (the controller's action space).
	Racks []controller.ManagedRack
	// Actuator enforces actions in this room.
	Actuator *rackmgr.Manager
	// Scenario supplies impact functions for planning.
	Scenario impact.Scenario
	// Controllers is the number of multi-primary controller instances for
	// the shard (default 1; production rooms run 3 on separate fault
	// domains).
	Controllers int
	// Stranded is the room's Eq. 5 stranded power from placement
	// (AllocatablePower − PairLoad().Total()); the aggregator sums it into
	// the fleet total.
	Stranded power.Watts
	// Allocatable is the room's allocatable power (Eq. 5's minuend).
	Allocatable power.Watts
	// Interval is read by nothing: the caller's cadence steps the shard.
	//
	//flex:keep bench/'s fleet driver sets it; it goes with that driver (ROADMAP item 3)
	Interval time.Duration
}

// Fleet is the sharded Flex-Online layer: an ingest bus, one shard per
// room, and an aggregator the caller runs.
type Fleet struct {
	cfg     Config
	broker  *telemetry.Broker
	metrics *Metrics
	tracer  *obs.Tracer
	stages  *obs.StageMetrics

	mu     sync.Mutex
	shards map[string]*Shard
	order  []string
}

// New creates an empty fleet.
func New(cfg Config) *Fleet {
	cfg.fillDefaults()
	f := &Fleet{
		cfg:    cfg,
		broker: telemetry.NewBroker(cfg.Name + "-ingest"),
		shards: make(map[string]*Shard),
	}
	if cfg.Obs != nil {
		f.metrics = NewMetrics(cfg.Obs)
		f.broker.Metrics = telemetry.NewMetrics(cfg.Obs)
		// One tracer and one stage-metrics family for the whole fleet:
		// every shard's controllers feed them, so EpisodeTraces stitches
		// cross-shard episodes from one ring and the stage digest
		// aggregates fleet-wide.
		f.tracer = obs.NewTracer(fleetTraceCapacity)
		f.stages = obs.NewStageMetrics(cfg.Obs)
	}
	f.broker.Recorder = cfg.Recorder
	return f
}

// fleetTraceCapacity sizes the fleet's shared trace ring: large enough
// that a 100-room fleet's concurrent overdraw rounds don't evict an
// episode mid-stitch.
const fleetTraceCapacity = 4096

// Tracer exposes the fleet's shared span tracer (nil without Config.Obs).
//
//flex:keep internal/emu's stage-digest test holds the fleet's digest to these spans
func (f *Fleet) Tracer() *obs.Tracer { return f.tracer }

// AddRoom creates the room's shard: telemetry views, bounded ingest
// subscriptions on the fleet bus, and the shard's controller instances.
// The caller steps the returned shard: IngestUPS/IngestRacks, Pump,
// StepContext.
func (f *Fleet) AddRoom(rc RoomConfig) (*Shard, error) {
	if rc.Name == "" {
		return nil, fmt.Errorf("fleet: room name required")
	}
	if rc.Topo == nil {
		return nil, fmt.Errorf("fleet: room %s: topology required", rc.Name)
	}
	// A poll round is one batch per topic, and the queue is where it waits
	// until Pump installs it in place. A round that does not fit evicts its
	// own head on every ingest: the same devices, every round, would never
	// reach the view.
	if n := len(rc.Racks); n > f.cfg.QueueDepth {
		return nil, fmt.Errorf("fleet: room %s: %d racks exceed the ingest queue depth %d", rc.Name, n, f.cfg.QueueDepth)
	}
	if n := len(rc.Topo.UPSes); n > f.cfg.QueueDepth {
		return nil, fmt.Errorf("fleet: room %s: %d UPSes exceed the ingest queue depth %d", rc.Name, n, f.cfg.QueueDepth)
	}
	if rc.Controllers <= 0 {
		rc.Controllers = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.shards[rc.Name]; dup {
		return nil, fmt.Errorf("fleet: room %s already added", rc.Name)
	}
	s := newShard(f, rc)
	f.shards[rc.Name] = s
	f.order = append(f.order, rc.Name)
	if f.metrics != nil {
		f.metrics.Rooms.Set(float64(len(f.order)))
	}
	return s, nil
}

// Shard returns the named room's shard (nil when unknown).
//
//flex:keep internal/emu's cancellation test watches a shard from outside the run
func (f *Fleet) Shard(room string) *Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[room]
}

// shardList snapshots the shard set for lock-free iteration.
func (f *Fleet) shardList() []*Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Shard, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, f.shards[name])
	}
	return out
}
