package telemetry

import (
	"flex/internal/obs"
)

// Metrics is the telemetry pipeline's own observability: how the software
// that moves power samples behaves, as opposed to the power values it
// carries. All fields are pre-bound at construction; updates on the poll
// and fan-in hot paths are allocation-free. A nil *Metrics disables
// instrumentation everywhere it is accepted.
type Metrics struct {
	// Polls counts poll rounds across all pollers.
	Polls *obs.Counter
	// SamplesPublished counts samples handed to brokers (per broker copy).
	SamplesPublished *obs.Counter
	// InvalidReads counts meter reads that failed quorum at poll time.
	InvalidReads *obs.Counter
	// ConsensusDisagreements counts logical-meter reads whose physical
	// meters spread wider than the disagreement threshold — the early
	// signal of a mis-calibrated meter the §IV-C median is masking.
	ConsensusDisagreements *obs.Counter
	// DroppedSamples counts samples evicted from slow subscriber buffers.
	DroppedSamples *obs.Counter
	// BatchPublishes counts PublishBatch calls; SamplesPublished /
	// BatchPublishes is the observed batching factor of the ingest path.
	BatchPublishes *obs.Counter
}

// NewMetrics registers the telemetry metrics on r (idempotent: calling
// twice with the same registry rebinds the same metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Polls:            r.Counter("flex_telemetry_polls_total", "poll rounds executed"),
		SamplesPublished: r.Counter("flex_telemetry_samples_published_total", "samples handed to brokers (per broker copy)"),
		InvalidReads:     r.Counter("flex_telemetry_invalid_reads_total", "meter reads that failed consensus quorum"),
		ConsensusDisagreements: r.Counter("flex_telemetry_consensus_disagreements_total",
			"logical meter reads with physical meters spread beyond the disagreement threshold"),
		DroppedSamples: r.Counter("flex_telemetry_dropped_samples_total", "samples evicted from slow subscriber buffers"),
		BatchPublishes: r.Counter("flex_telemetry_batch_publishes_total", "PublishBatch calls"),
	}
}
