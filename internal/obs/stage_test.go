package obs

import (
	"sync"
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

// TestStageDigestMaxUnderConcurrentObservers: with many goroutines feeding
// rounds, count and sum stay exact and the digest's join is the exemplar
// that rode in on the largest observation — never one torn between two
// rounds. Run under -race.
func TestStageDigestMaxUnderConcurrentObservers(t *testing.T) {
	reg := NewRegistry()
	sm := NewStageMetrics(reg)
	if again := NewStageMetrics(reg); again != sm {
		t.Fatal("a registry handed out two StageMetrics: histograms and maxima could be fed apart")
	}
	t0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // a reader racing the writers, as the auditor does
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				for _, d := range sm.Digest() {
					if d.Count > 0 && uint64(d.Max*1000+0.5) != d.Event {
						t.Errorf("stage %s: max %vs joined to event %d", d.Stage, d.Max, d.Event)
						return
					}
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every round has a distinct duration in milliseconds,
				// and its exemplar says which.
				ms := uint64(1 + w*perWorker + i)
				var durs [NumStages]time.Duration
				for st := range durs {
					durs[st] = time.Duration(ms) * time.Millisecond
				}
				sm.ObserveRound(round(t0, durs), Exemplar{Episode: uint64(w + 1), Trace: ms, Seq: ms})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped
	const n = workers * perWorker
	for _, d := range sm.Digest() {
		if d.Count != n {
			t.Errorf("stage %s: count %d, want %d", d.Stage, d.Count, n)
		}
		if want := float64(n) * float64(n+1) / 2 / 1000; d.Sum < want-1e-6 || d.Sum > want+1e-6 {
			t.Errorf("stage %s: sum %v, want %v", d.Stage, d.Sum, want)
		}
		if d.Max != float64(n)/1000 || d.Event != n || d.Trace != n || d.Episode != workers {
			t.Errorf("stage %s: max %v from episode %d trace %d event %d, want %v from the last worker's last round (%d)",
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
