package obs

import (
	"sync"
	"time"
)

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

// StageBounds are the instants of one controller round that bound its
// stages: stage st runs from b[st] to b[st+1] — MeasuredAt, PublishedAt,
// DequeuedAt, step start, detect, plan end, act end. A zero instant is one
// the round has no reading of (a sample that predates stamping) or did not
// reach (a stale-skip round ends at detect). The round's trace and the
// stage metrics are both built from this one array.
type StageBounds [NumStages + 1]time.Time

// Span is stage st's interval, false when either bound is missing. An end
// ahead of its start is clamped to it: async ingest can install a sample
// mid-step, which would make the view stage marginally negative.
func (b *StageBounds) Span(st Stage) (Span, bool) {
	start, end := b[st], b[st+1]
	if start.IsZero() || end.IsZero() {
		return Span{}, false
	}
	if end.Before(start) {
		end = start
	}
	return Span{Name: stageNames[st], Start: start, End: end}, true
}

// End is the last instant the round reached.
func (b *StageBounds) End() time.Time {
	for i := NumStages; i > 0; i-- {
		if !b[i].IsZero() {
			return b[i]
		}
	}
	return b[0]
}

// Exemplar joins one observation back to its flight-recorder context: the
// episode it belonged to, the span trace that timed it, and the recorder
// sequence of the event that rooted it. All fields are fixed-size, so
// attaching an exemplar allocates nothing. StageMetrics keeps the one that
// rode in on each stage's largest observation, which is then one lookup
// from its event chain: a recorded run's `flexreplay -episode <Episode>`
// prints it.
type Exemplar struct {
	// Value is the observed value the exemplar annotates (seconds for
	// latency histograms).
	Value float64
	// Episode is the flight-recorder episode id (0 when unrecorded).
	Episode uint64
	// Trace is the span-tracer sequence of the trace that measured the
	// observation (0 when untraced).
	Trace uint64
	// Seq is the recorder sequence of the rooting event — for stage
	// latencies, the detect event (0 when unrecorded).
	Seq uint64
}

// StageMetrics owns the per-stage numbers of the detect→shed critical
// path: the flex_stage_latency_seconds{stage=...} histograms (children
// bound at construction) and, beside each, the exact largest observation
// with the exemplar that set it. Digest is the one reader. A nil
// *StageMetrics is a valid no-op receiver, matching the registry-optional
// convention used throughout the controller.
type StageMetrics struct {
	hist [NumStages]*Histogram

	mu  sync.Mutex          // held across a round, so Digest never sees half of one
	max [NumStages]Exemplar // of the largest observation; valid once the stage has a count
}

// NewStageMetrics registers the stage latency family on r and pre-binds
// one child per stage. Like every registration it is idempotent: a
// registry has one StageMetrics, so the histograms and the maxima beside
// them cannot be fed apart.
func NewStageMetrics(r *Registry) *StageMetrics {
	if r == nil {
		return nil
	}
	r.stagesOnce.Do(func() {
		vec := r.HistogramVec("flex_stage_latency_seconds",
			"Critical-path latency by stage (sample|queue|view|detect|plan|act); stage sums reconcile with detect-to-shed latency.",
			LatencyBuckets(), "stage")
		r.stages = &StageMetrics{}
		for st := range r.stages.hist {
			r.stages.hist[st] = vec.With(stageNames[st])
		}
	})
	return r.stages
}

// ObserveRound records every stage the round b has a span for, with ex
// joining each observation to its episode, trace and detect event.
// Nil-safe no-op.
//
//flex:hotpath
func (sm *StageMetrics) ObserveRound(b *StageBounds, ex Exemplar) {
	if sm == nil {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for st := Stage(0); st < NumStages; st++ {
		sp, ok := b.Span(st)
		if !ok {
			continue
		}
		ex.Value = sp.Duration().Seconds()
		if sm.hist[st].Count() == 0 || ex.Value > sm.max[st].Value {
			sm.max[st] = ex
		}
		sm.hist[st].Observe(ex.Value)
	}
}

// StageDigest is what was measured of one stage: how many rounds, their
// total and the largest — exact values, not bucket estimates — and the
// flight-recorder join of the round that set the largest (Episode is the
// recorded episode, Trace the tracer's sequence, Event the recorder
// sequence of the round's rooting event). The join is zero until the stage
// has a count.
type StageDigest struct {
	Stage   string  `json:"stage"`
	Count   uint64  `json:"count"`
	Sum     float64 `json:"sum_seconds"`
	Max     float64 `json:"max_seconds"`
	Episode uint64  `json:"episode,omitempty"`
	Trace   uint64  `json:"trace,omitempty"`
	Event   uint64  `json:"event,omitempty"`
}

// Mean is Sum over Count (0 for an empty stage).
func (d StageDigest) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Digest reads every stage in timeline order, between rounds. A nil
// receiver digests to empty stages. It allocates nothing: the auditor
// calls it every tick.
//
//flex:hotpath
func (sm *StageMetrics) Digest() (out [NumStages]StageDigest) {
	for st := range out {
		out[st].Stage = stageNames[st]
	}
	if sm == nil {
		return out
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for st := range out {
		d, m := &out[st], &sm.max[st]
		d.Count, d.Sum = sm.hist[st].Count(), sm.hist[st].Sum()
		d.Max, d.Episode, d.Trace, d.Event = m.Value, m.Episode, m.Trace, m.Seq
	}
	return out
}
