package telemetry

import (
	"flex/internal/clock"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// PipelineConfig configures a full redundant room pipeline.
type PipelineConfig struct {
	Clock clock.Clock
	// UPSSources supplies ground-truth UPS output power by device name.
	UPSSources map[string]PowerSource
	// RackSources supplies ground-truth rack power by rack name.
	RackSources map[string]PowerSource
	// MechSource is the mechanical (cooling) load observed by the
	// Total−Mech derived meters; nil means a constant 5% of UPS power is
	// unavailable, so a zero source is used.
	MechSource PowerSource
	// Pollers is the number of redundant pollers (default 2).
	Pollers int
	// Brokers is the number of redundant pub/sub systems (default 2).
	Brokers int
	// Seed drives meter noise.
	Seed int64
	// Obs, when non-nil, instruments the pipeline's own behaviour (poll
	// counts, publish lag, drops, consensus disagreements) on the given
	// registry.
	Obs *obs.Registry
	// Recorder, when non-nil, wires the flight recorder through the
	// pipeline: pollers emit sample-publish, brokers emit sample-drop,
	// and consensus meters emit verdict/disagree/quorum-loss events.
	// Views wired via SubscribeAll opt in separately with SetRecorder.
	Recorder *recorder.Recorder
}

// Pipeline is the assembled telemetry system for one room: per-device
// consensus meters, redundant pollers, and duplicated brokers. It runs
// only when its owner steps it: PollOnce is one poll round on every
// poller, and SubscribeAll feeds a view from every broker.
type Pipeline struct {
	Clock      clock.Clock
	UPSMeters  map[string]*LogicalMeter
	RackMeters map[string]*LogicalMeter
	PollerSet  []*Poller
	BrokerSet  []*Broker
	// Metrics is non-nil when PipelineConfig.Obs was set.
	Metrics *Metrics
}

// NewPipeline assembles a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Pollers <= 0 {
		cfg.Pollers = 2
	}
	if cfg.Brokers <= 0 {
		cfg.Brokers = 2
	}
	mech := cfg.MechSource
	if mech == nil {
		mech = func() power.Watts { return 0 }
	}
	p := &Pipeline{
		Clock:      cfg.Clock,
		UPSMeters:  make(map[string]*LogicalMeter),
		RackMeters: make(map[string]*LogicalMeter),
	}
	if cfg.Obs != nil {
		p.Metrics = NewMetrics(cfg.Obs)
	}
	for i := 0; i < cfg.Brokers; i++ {
		b := NewBroker(brokerName(i))
		b.Metrics = p.Metrics
		b.Recorder = cfg.Recorder
		p.BrokerSet = append(p.BrokerSet, b)
	}
	seed := cfg.Seed
	var upsTargets, rackTargets []Target
	for _, name := range sortedKeys(cfg.UPSSources) {
		lm := NewUPSLogicalMeter(name, cfg.UPSSources[name], mech, seed)
		lm.Metrics = p.Metrics
		lm.Recorder = cfg.Recorder
		seed += 10
		p.UPSMeters[name] = lm
		upsTargets = append(upsTargets, Target{Meter: lm, Topic: TopicUPS})
	}
	for _, name := range sortedKeys(cfg.RackSources) {
		// Racks carry a single PDU-fed meter pair (in-rack PSU telemetry
		// and the PDU branch meter) — two meters, quorum 1, so one failure
		// is tolerated but a misreading is not maskable (the controller's
		// safety buffer absorbs that, §IV-D).
		a := NewSimMeter(name+"/psu", cfg.RackSources[name], SimMeterConfig{Noise: 0.01, Seed: seed})
		b := NewSimMeter(name+"/pdu", cfg.RackSources[name], SimMeterConfig{Noise: 0.01, Seed: seed + 1})
		seed += 10
		lm, err := NewLogicalMeter(name, a, b)
		if err != nil {
			panic(err) // static construction; cannot fail
		}
		lm.Quorum = 1
		lm.Metrics = p.Metrics
		lm.Recorder = cfg.Recorder
		p.RackMeters[name] = lm
		rackTargets = append(rackTargets, Target{Meter: lm, Topic: TopicRack})
	}
	pubs := make([]SamplePublisher, len(p.BrokerSet))
	for i, b := range p.BrokerSet {
		pubs[i] = b
	}
	for i := 0; i < cfg.Pollers; i++ {
		ups := NewPoller(pollerName(i, "ups"), cfg.Clock, pubs, upsTargets)
		rack := NewPoller(pollerName(i, "rack"), cfg.Clock, pubs, rackTargets)
		ups.Metrics = p.Metrics
		rack.Metrics = p.Metrics
		ups.Recorder = cfg.Recorder
		rack.Recorder = cfg.Recorder
		p.PollerSet = append(p.PollerSet, ups, rack)
	}
	return p
}

// PollOnce runs a single synchronous poll round on every poller; the
// owner calls it on its own cadence.
//
//flex:keep the facade's NewPipeline hands out the stepped pipeline
func (p *Pipeline) PollOnce() {
	for _, poller := range p.PollerSet {
		poller.PollOnce()
	}
}

// SubscribeAll subscribes to a topic on every broker and merges the
// streams into view, which keeps the newest reading per device. The
// returned cancel function closes the subscriptions, which ends the
// goroutines feeding the view.
//
//flex:keep the facade's NewPipeline hands out the stepped pipeline
func (p *Pipeline) SubscribeAll(topic string, view *LatestPower) (cancel func()) {
	var subs []*Subscription
	for _, b := range p.BrokerSet {
		sub := b.Subscribe(topic, 1024)
		subs = append(subs, sub)
		go sub.Consume(make([]Sample, 64), func(batch []Sample) bool {
			p.install(batch, view)
			return true
		})
	}
	return func() {
		for _, s := range subs {
			s.Close()
		}
	}
}

// install moves one drained batch into view: what view refuses — another
// path's copy, a stale repeat or an invalid reading — is a dedupe hit, what it
// takes adds its publish lag.
func (p *Pipeline) install(batch []Sample, view *LatestPower) {
	for _, s := range batch {
		// The view keeps the dequeue instant with the reading:
		// PublishedAt→DequeuedAt is the queue-wait stage.
		now := p.Clock.Now()
		installed := view.UpdateDequeued(s, now)
		switch {
		case p.Metrics == nil:
		case installed:
			p.Metrics.PublishLag.ObserveDuration(now.Sub(s.MeasuredAt))
		default:
			p.Metrics.DedupeHits.Inc()
		}
	}
}

func brokerName(i int) string { return "pubsub-" + string(rune('A'+i)) }

func pollerName(i int, kind string) string {
	return "poller-" + string(rune('A'+i)) + "-" + kind
}

func sortedKeys(m map[string]PowerSource) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; tiny maps
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
