package flex

import (
	"flex/internal/telemetry"
)

// Telemetry types (paper §IV-C, Figure 7).
type (
	// Sample is one published power measurement.
	Sample = telemetry.Sample
	// PowerSource supplies ground-truth power to simulated meters.
	PowerSource = telemetry.PowerSource
	// Meter is a pull-based power meter.
	Meter = telemetry.Meter
	// LogicalMeter is a median-consensus meter over redundant physical
	// meters.
	LogicalMeter = telemetry.LogicalMeter
	// Broker is an in-process pub/sub system; PublishBatch is its one
	// publish path.
	Broker = telemetry.Broker
	// BrokerServer exposes a Broker over TCP.
	BrokerServer = telemetry.BrokerServer
	// RemotePublisher publishes to a BrokerServer over TCP.
	RemotePublisher = telemetry.RemotePublisher
	// Poller reads logical meters and publishes samples, batching
	// consecutive same-topic targets into one PublishBatch.
	Poller = telemetry.Poller
	// LatestPower is the freshest-power view controllers read; keeping
	// the newest reading per device is what dedupes the redundant paths.
	LatestPower = telemetry.LatestPower
	// EWMAEstimator is the §IV-D time-series rack-power estimator.
	EWMAEstimator = telemetry.EWMAEstimator
	// Pipeline is a fully assembled redundant telemetry system.
	Pipeline = telemetry.Pipeline
	// PipelineConfig configures NewPipeline.
	PipelineConfig = telemetry.PipelineConfig
)

// Telemetry topics.
const (
	TopicUPS  = telemetry.TopicUPS
	TopicRack = telemetry.TopicRack
)

// NewPipeline assembles a room's redundant telemetry pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline { return telemetry.NewPipeline(cfg) }

// NewLatestPower returns an empty power view.
func NewLatestPower() *LatestPower { return telemetry.NewLatestPower() }

// NewEWMAEstimator creates a time-series power estimator.
func NewEWMAEstimator(alpha float64) *EWMAEstimator { return telemetry.NewEWMAEstimator(alpha) }
