package obs

import "time"

// Stage identifies one segment of the detect→shed critical path — the
// latency-attribution taxonomy (DESIGN.md "Latency attribution"). The
// stages tile the full meter-to-actuation timeline, so per-episode stage
// durations sum to the end-to-end shed latency by construction:
//
//	sample  MeasuredAt  → PublishedAt   meter read, consensus, batching
//	queue   PublishedAt → DequeuedAt    broker buffer + shard ingest queue
//	view    DequeuedAt  → step start    view merge until the controller looks
//	detect  step start  → detect        snapshot, worst-UPS scan, episode open
//	plan    detect      → plan end      Algorithm 1 under the plan budget
//	act     plan end    → act end       rackmgr dispatch + ack
type Stage int

// Critical-path stages, in timeline order.
const (
	StageSample Stage = iota
	StageQueue
	StageView
	StageDetect
	StagePlan
	StageAct
	NumStages // number of stages; not itself a stage
)

var stageNames = [NumStages]string{"sample", "queue", "view", "detect", "plan", "act"}

// String returns the stage's label value ("sample", "queue", ...).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every stage in timeline order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageMetrics is the pre-bound per-stage latency histogram family
// (flex_stage_latency_seconds{stage=...}). Children are bound at
// construction, so hot-path observation is an array index plus a
// histogram update — no map lookups, no allocation. A nil *StageMetrics
// is a valid no-op receiver, matching the registry-optional convention
// used throughout the controller.
type StageMetrics struct {
	hist [NumStages]*Histogram
}

// NewStageMetrics registers the stage latency family on r and pre-binds
// one child per stage.
func NewStageMetrics(r *Registry) *StageMetrics {
	if r == nil {
		return nil
	}
	vec := r.HistogramVec("flex_stage_latency_seconds",
		"Critical-path latency by stage (sample|queue|view|detect|plan|act); stage sums reconcile with detect-to-shed latency.",
		LatencyBuckets(), "stage")
	sm := &StageMetrics{}
	for st := Stage(0); st < NumStages; st++ {
		sm.hist[st] = vec.With(st.String())
	}
	return sm
}

// Observe records one stage duration. Nil-safe no-op.
//
//flex:hotpath
func (sm *StageMetrics) Observe(st Stage, d time.Duration) {
	if sm == nil || st < 0 || st >= NumStages {
		return
	}
	sm.hist[st].ObserveDuration(d)
}

// ObserveExemplar records one stage duration and attaches ex to its
// bucket, joining the observation to its episode/trace/recorder context.
// Nil-safe no-op.
//
//flex:hotpath
func (sm *StageMetrics) ObserveExemplar(st Stage, d time.Duration, ex Exemplar) {
	if sm == nil || st < 0 || st >= NumStages {
		return
	}
	sm.hist[st].ObserveExemplar(d.Seconds(), ex)
}

// Histogram returns the stage's pre-bound histogram (nil when sm is nil
// or st is out of range) — the handle for summaries, exemplar export and
// the auditor's per-tick quantile reads.
func (sm *StageMetrics) Histogram(st Stage) *Histogram {
	if sm == nil || st < 0 || st >= NumStages {
		return nil
	}
	return sm.hist[st]
}
