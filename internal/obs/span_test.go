package obs

import (
	"testing"
	"time"

	"flex/internal/clock"
)

// TestTracerVirtualClockExactLatencies drives spans from a virtual clock
// and asserts the recorded durations are exact — the property clockcheck
// protects: obs never reads wall time itself.
func TestTracerVirtualClockExactLatencies(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := NewTracer(8)

	var b StageBounds
	b[StageDetect] = clk.Now()
	trace := tr.Start("controller/step", b[StageDetect])
	clk.Advance(150 * time.Millisecond)
	b[StagePlan] = clk.Now()
	clk.Advance(40 * time.Millisecond)
	b[StageAct] = clk.Now()
	clk.Advance(2 * time.Second)
	b[NumStages] = clk.Now()
	trace.FinishRound(&b, "enforced=3")

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("got %d traces, want 1", len(recent))
	}
	got := recent[0]
	if d := got.End.Sub(got.Start); d != 2190*time.Millisecond {
		t.Fatalf("trace duration = %v, want 2.19s", d)
	}
	wantSpans := map[string]time.Duration{
		"detect": 150 * time.Millisecond,
		"plan":   40 * time.Millisecond,
		"act":    2 * time.Second,
	}
	if len(got.Spans) != len(wantSpans) {
		t.Fatalf("got spans %+v, want %d: the unstamped stages have none", got.Spans, len(wantSpans))
	}
	for _, s := range got.Spans {
		if want := wantSpans[s.Name]; s.Duration() != want {
			t.Errorf("span %s duration = %v, want %v", s.Name, s.Duration(), want)
		}
	}
	if got.Note != "enforced=3" {
		t.Errorf("note = %q", got.Note)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		trace := tr.Start("step", clk.Now())
		clk.Advance(time.Second)
		trace.Finish(clk.Now())
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	// Newest first: seq 5, 4, 3.
	for i, wantSeq := range []uint64{5, 4, 3} {
		if recent[i].Seq != wantSeq {
			t.Fatalf("recent[%d].Seq = %d, want %d", i, recent[i].Seq, wantSeq)
		}
	}
	if got := tr.Started(); got != 5 {
		t.Fatalf("Started = %d, want 5", got)
	}
}
