package fleet

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"flex/internal/controller"
	"flex/internal/telemetry"
)

// Shard is one room's slice of the fleet: its own telemetry views and
// bounded ingest queues and its own controller primaries, stepped by its
// owner on the owner's clock (IngestUPS/IngestRacks, Pump, StepContext). Pump
// writes nothing a sibling reads, so shards pump side by side; every
// Ingest* takes the fleet bus's one broker lock to copy its batch into the
// queue, which is the only thing shards share, and Pump installs the queued
// samples into the views without copying them out. Ingest and step stay serial
// by design: the emulator drives them in room order, which keeps the
// recorder's event order and the shared tracer's and stage histograms'
// writes the same on any number of cores.
type Shard struct {
	// Name is the room name.
	Name string

	fleet     *Fleet
	cfg       RoomConfig
	upsTopic  string
	rackTopic string
	upsSub    *telemetry.Subscription
	rackSub   *telemetry.Subscription
	upsView   *telemetry.LatestPower
	rackView  *telemetry.LatestPower
	ctls      []*controller.Controller

	pumped, steps atomic.Uint64
}

func newShard(f *Fleet, rc RoomConfig) *Shard {
	s := &Shard{
		Name:      rc.Name,
		fleet:     f,
		cfg:       rc,
		upsTopic:  telemetry.TopicUPS + "/" + rc.Name,
		rackTopic: telemetry.TopicRack + "/" + rc.Name,
		upsView:   telemetry.NewLatestPower(),
		rackView:  telemetry.NewLatestPower(),
	}
	s.upsSub = f.broker.Subscribe(s.upsTopic, f.cfg.QueueDepth)
	s.rackSub = f.broker.Subscribe(s.rackTopic, f.cfg.QueueDepth)
	var ctlMetrics *controller.Metrics
	if f.cfg.Obs != nil {
		// One registry-wide metrics instance: the fleet's controller
		// counters and latency histograms aggregate across shards, the
		// same way a room's aggregate across primaries.
		ctlMetrics = controller.NewMetrics(f.cfg.Obs)
	}
	s.ctls = make([]*controller.Controller, rc.Controllers)
	for i := range s.ctls {
		s.ctls[i] = controller.New(controller.Config{
			Name:     fmt.Sprintf("%s/ctl-%d", rc.Name, i+1),
			Clock:    f.cfg.Clock,
			Topo:     rc.Topo,
			Racks:    rc.Racks,
			UPSView:  s.upsView,
			RackView: s.rackView,
			Actuator: rc.Actuator,
			Scenario: rc.Scenario,
			Metrics:  ctlMetrics,
			Tracer:   f.tracer,
			Stages:   f.stages,
			Recorder: f.cfg.Recorder,
		})
	}
	return s
}

// IngestUPS publishes a batch of UPS samples onto the shard's bounded
// ingest queue. Never blocks: a full queue drops its oldest samples
// (counted via Dropped) — backpressure is absorbed here, at this shard,
// and nowhere else.
//
//flex:hotpath
func (s *Shard) IngestUPS(batch []telemetry.Sample) {
	s.fleet.broker.PublishBatch(s.upsTopic, batch)
}

// IngestRacks publishes a batch of rack samples onto the shard's bounded
// ingest queue with the same drop-oldest semantics as IngestUPS.
//
//flex:hotpath
func (s *Shard) IngestRacks(batch []telemetry.Sample) {
	s.fleet.broker.PublishBatch(s.rackTopic, batch)
}

// Pump drains the shard's ingest queues into its telemetry views and
// returns how many samples it moved. Each queue goes to its view with the
// dequeue instant (one clock read per non-empty queue), which the view keeps
// with every reading it installs, so the queue-wait stage of the latency
// waterfall is attributable.
func (s *Shard) Pump() int {
	n := s.drain(s.upsSub, s.upsView) + s.drain(s.rackSub, s.rackView)
	if n > 0 {
		s.pumped.Add(uint64(n))
	}
	return n
}

// drain installs everything queued on sub into view, straight from the
// queue's ring: one UpdateBatch per contiguous run, two at most, so a poll
// that did not wrap the ring reaches the view whole. The runs share one
// dequeue instant, read when the first arrives; an empty queue reads no
// clock.
func (s *Shard) drain(sub *telemetry.Subscription, view *telemetry.LatestPower) int {
	var at time.Time
	return sub.Drain(func(run []telemetry.Sample) {
		if at.IsZero() {
			at = s.fleet.cfg.Clock.Now()
		}
		view.UpdateBatch(run, at)
	})
}

// StepContext runs one evaluation round on every controller primary and
// reports the aggregate: whether any primary saw an overdraw, and how many
// actions were enforced and racks restored across them.
func (s *Shard) StepContext(ctx context.Context) (overdraw bool, enforced, restored int) {
	for _, c := range s.ctls {
		out := c.StepContext(ctx)
		overdraw = overdraw || out.Overdraw
		enforced += out.Enforced
		restored += out.Restored
	}
	s.steps.Add(1)
	return overdraw, enforced, restored
}

// Dropped reports how many samples this shard's ingest queues have
// evicted under backpressure.
func (s *Shard) Dropped() int {
	return s.upsSub.Dropped() + s.rackSub.Dropped()
}

// Pumped reports how many samples the shard has moved into its views.
func (s *Shard) Pumped() uint64 { return s.pumped.Load() }

// Steps reports how many evaluation rounds the shard has run.
func (s *Shard) Steps() uint64 { return s.steps.Load() }

// committedHeadroom is the power the shard's enforced-and-unrestored
// actions have recovered. Multi-primary instances act idempotently on the
// same racks, so the fold counts a rack once, at its largest claim, and
// adds in rack order: the same actions give the same bits.
func (s *Shard) committedHeadroom() (watts float64, racks int) {
	var claims []controller.PlannedAction
	for _, c := range s.ctls {
		actions, _ := c.CommittedActions()
		claims = append(claims, actions...)
	}
	slices.SortFunc(claims, func(a, b controller.PlannedAction) int {
		return cmp.Or(strings.Compare(a.Rack, b.Rack), cmp.Compare(b.Recovered, a.Recovered))
	})
	for i, a := range claims {
		if i == 0 || a.Rack != claims[i-1].Rack {
			watts += float64(a.Recovered)
			racks++
		}
	}
	return watts, racks
}

// openEpisode reports whether any primary has an open overdraw episode
// and the earliest time one was detected.
func (s *Shard) openEpisode() (open bool, since time.Time) {
	for _, c := range s.ctls {
		if _, at, ok := c.OpenEpisode(); ok {
			if !open || at.Before(since) {
				since = at
			}
			open = true
		}
	}
	return open, since
}
