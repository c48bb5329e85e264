package obs

import (
	"math/rand"
	"testing"
	"time"
)

// round is a StageBounds whose stage st lasts durs[st], starting at t0.
func round(t0 time.Time, durs [NumStages]time.Duration) *StageBounds {
	var b StageBounds
	b[0] = t0
	for st, d := range durs {
		b[st+1] = b[st].Add(d)
	}
	return &b
}

// TestStageDigestReportsZeroAsZero is the regression test for the bucket
// midpoint: rounds that take no virtual time at all used to digest to
// p50 0.025s / p99 0.0495s, half the first LatencyBuckets bound.
func TestStageDigestReportsZeroAsZero(t *testing.T) {
	sm := NewStageMetrics(NewRegistry())
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	const n = 5
	for i := 0; i < n; i++ {
		sm.ObserveRound(round(t0, [NumStages]time.Duration{}), Exemplar{Episode: 1, Seq: uint64(10 + i)})
	}
	for st, d := range sm.Digest() {
		if d.Stage != Stage(st).String() {
			t.Errorf("digest %d is stage %q, want %q (timeline order)", st, d.Stage, Stage(st))
		}
		if d.Count != n || d.Sum != 0 || d.Max != 0 || d.Mean() != 0 {
			t.Errorf("stage %s: count %d sum %v max %v, want %d, 0, 0", d.Stage, d.Count, d.Sum, d.Max, n)
		}
		// Ties keep the first: the join is the round that first reached
		// the maximum.
		if d.Episode != 1 || d.Event != 10 {
			t.Errorf("stage %s: joined to episode %d event %d, want 1 and 10", d.Stage, d.Episode, d.Event)
		}
	}
}

// TestStageDigestSkipsMissingBoundsAndClamps: a stage with a zero bound is
// not observed, a negative one counts as zero, and nil receivers are
// no-ops that digest to empty stages.
func TestStageDigestSkipsMissingBoundsAndClamps(t *testing.T) {
	sm := NewStageMetrics(NewRegistry())
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	// Unstamped sample (no MeasuredAt/PublishedAt), dequeued 10ms after
	// the step started, and the round stopped at plan end.
	b := StageBounds{
		StageView:   t0.Add(10 * time.Millisecond),
		StageDetect: t0,
		StagePlan:   t0.Add(time.Second),
		StageAct:    t0.Add(3 * time.Second),
	}
	if got := b.End(); !got.Equal(b[StageAct]) {
		t.Fatalf("End = %v, want the plan end %v", got, b[StageAct])
	}
	sm.ObserveRound(&b, Exemplar{})
	want := [NumStages]struct {
		count uint64
		max   float64
	}{StageView: {1, 0}, StageDetect: {1, 1}, StagePlan: {1, 2}}
	for st, d := range sm.Digest() {
		if d.Count != want[st].count || d.Max != want[st].max || d.Sum != want[st].max {
			t.Errorf("stage %s: count %d sum %v max %v, want %+v", d.Stage, d.Count, d.Sum, d.Max, want[st])
		}
	}

	var none *StageMetrics
	none.ObserveRound(&b, Exemplar{})
	for _, d := range none.Digest() {
		if d.Stage == "" || d.Count != 0 {
			t.Errorf("nil StageMetrics digests to %+v, want a named empty stage", d)
		}
	}
	if NewStageMetrics(nil) != nil {
		t.Error("NewStageMetrics(nil) is not the nil no-op receiver")
	}
}

// TestStageDigestMaxUnderInterleavedObservers: with the rounds of many
// controllers interleaved in a seeded order and the digest read between
// them, as the auditor reads it between steps, count and sum stay exact and
// the digest's join is the exemplar that rode in on the largest
// observation. A registry hands out one StageMetrics, so the histograms and
// the maxima beside them cannot be fed apart.
func TestStageDigestMaxUnderInterleavedObservers(t *testing.T) {
	reg := NewRegistry()
	sm := NewStageMetrics(reg)
	if again := NewStageMetrics(reg); again != sm {
		t.Fatal("a registry handed out two StageMetrics: histograms and maxima could be fed apart")
	}
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	const observers, perObserver = 8, 200
	rng := rand.New(rand.NewSource(1))
	var done [observers]int
	for left := observers * perObserver; left > 0; left-- {
		w := rng.Intn(observers)
		for done[w] == perObserver {
			w = (w + 1) % observers
		}
		// Every round has a distinct duration in milliseconds, and its
		// exemplar says which.
		ms := uint64(1 + w*perObserver + done[w])
		done[w]++
		var durs [NumStages]time.Duration
		for st := range durs {
			durs[st] = time.Duration(ms) * time.Millisecond
		}
		sm.ObserveRound(round(t0, durs), Exemplar{Episode: uint64(w + 1), Trace: ms, Seq: ms})
		if rng.Intn(4) == 0 {
			for _, d := range sm.Digest() {
				if uint64(d.Max*1000+0.5) != d.Event {
					t.Fatalf("stage %s: max %vs joined to event %d", d.Stage, d.Max, d.Event)
				}
			}
		}
	}
	const n = observers * perObserver
	for _, d := range sm.Digest() {
		if d.Count != n {
			t.Errorf("stage %s: count %d, want %d", d.Stage, d.Count, n)
		}
		if want := float64(n) * float64(n+1) / 2 / 1000; d.Sum < want-1e-6 || d.Sum > want+1e-6 {
			t.Errorf("stage %s: sum %v, want %v", d.Stage, d.Sum, want)
		}
		if d.Max != float64(n)/1000 || d.Event != n || d.Trace != n || d.Episode != observers {
			t.Errorf("stage %s: max %v from episode %d trace %d event %d, want %v from the last observer's last round (%d)",
				d.Stage, d.Max, d.Episode, d.Trace, d.Event, float64(n)/1000, n)
		}
	}
}

// TestStageMetricsZeroAllocations: the round observation sits on the
// controller step and the digest on the audit tick.
func TestStageMetricsZeroAllocations(t *testing.T) {
	sm := NewStageMetrics(NewRegistry())
	b := round(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC), [NumStages]time.Duration{time.Second, 0, time.Second})
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sm.ObserveRound(b, Exemplar{Episode: 1})
		sink += sm.Digest()[StageSample].Count
	}); allocs != 0 {
		t.Errorf("ObserveRound + Digest: %v allocs/op, want 0", allocs)
	}
}

// TestNilTraceIsNoOp pins the nil receivers the controller relies on.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("step", time.Unix(0, 0))
	if trace != nil {
		t.Fatalf("nil tracer started %+v", trace)
	}
	trace.Join(3, 4)
	trace.FinishRound(&StageBounds{}, "note")
	if trace.ID() != 0 {
		t.Fatal("nil trace has an ID")
	}
}
