package flex

import (
	"io"

	"flex/internal/obs/recorder"
)

// Flight recorder: the causally-ordered event log every subsystem can
// emit into (telemetry, consensus, planning, actuation); cmd/flexreplay
// re-drives an episode from its log.
type (
	// FlightRecorder is the bounded in-memory event ring (plus optional
	// JSONL sink). Hand one to EmulationConfig.Recorder.
	FlightRecorder = recorder.Recorder
	// FlightSink persists events as length-prefixed JSONL.
	FlightSink = recorder.Sink
)

// NewFlightRecorder creates a flight recorder retaining the last capacity
// events (default 8192 when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder { return recorder.New(capacity) }

// NewFlightSink wraps w as a length-prefixed JSONL event sink.
func NewFlightSink(w io.Writer) *FlightSink { return recorder.NewSink(w) }
