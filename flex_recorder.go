package flex

import (
	"context"
	"io"

	"flex/internal/obs/recorder"
	"flex/internal/replay"
)

// Flight recorder: the causally-ordered event log every subsystem can
// emit into (telemetry, consensus, planning, actuation), and the
// deterministic episode replay built on it.
type (
	// FlightRecorder is the bounded in-memory event ring (plus optional
	// JSONL sink). Hand one to EmulationConfig.Recorder, PipelineConfig.
	// Recorder, or the controller/rackmgr configs.
	FlightRecorder = recorder.Recorder
	// FlightEvent is one recorded event.
	FlightEvent = recorder.Event
	// FlightEventType enumerates the event taxonomy.
	FlightEventType = recorder.Type
	// FlightFilter selects events (episode, type, actor, seq range …).
	FlightFilter = recorder.Filter
	// FlightSink persists events as length-prefixed JSONL.
	FlightSink = recorder.Sink
	// ReplayHeader is the episode-log preamble pinning room, scenario and
	// managed racks.
	ReplayHeader = replay.Header
	// ReplayReport is the recorded-vs-replayed decision diff.
	ReplayReport = replay.Report
)

// NewFlightRecorder creates a flight recorder retaining the last capacity
// events (default 8192 when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder { return recorder.New(capacity) }

// NewFlightSink wraps w as a length-prefixed JSONL event sink.
func NewFlightSink(w io.Writer) *FlightSink { return recorder.NewSink(w) }

// ReadFlightEvents parses a length-prefixed JSONL event log.
func ReadFlightEvents(r io.Reader) ([]FlightEvent, error) { return recorder.ReadEvents(r) }

// ReplayEventsContext re-drives every recorded planning pass of an
// episode log under ctx and diffs the replayed decisions against the
// recorded ones.
func ReplayEventsContext(ctx context.Context, events []FlightEvent) (*ReplayReport, error) {
	return replay.Replay(ctx, events)
}
