package controller

import (
	"context"
	"reflect"
	"testing"
	"time"

	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/power"
	"flex/internal/telemetry"
)

// feedStamped is harness.feed, two seconds after the last one, with the
// ingest timeline a fleet shard stamps: published 100ms after the read,
// pulled off the queue 200ms after that. The clock is left 700ms past the
// dequeue, which is how long the reading then sits in the view — and a
// second short of the next reading, which is therefore fresh.
func feedStamped(h *harness, ups []power.Watts) {
	h.stamp = func(s *telemetry.Sample) time.Time {
		s.PublishedAt = s.MeasuredAt.Add(100 * time.Millisecond)
		return s.MeasuredAt.Add(300 * time.Millisecond)
	}
	h.feed(ups)
	h.clk.Advance(time.Second)
}

// TestInstrumentationDoesNotChangeOutcomes runs one scripted episode —
// idle, overdraw, a stale-skip round, a second shed on fresh telemetry,
// clear and restore — through a controller with no tracer, stage metrics
// or recorder and through one with all three. Every StepOutcome must be
// identical (the nil receivers are no-ops, not a different path), and on
// the instrumented side the trace and the stage digest, fed from one array
// of instants, must say the same thing.
func TestInstrumentationDoesNotChangeOutcomes(t *testing.T) {
	bare, wired := newHarness(t), newHarness(t)
	reg, tracer, rec := obs.NewRegistry(), obs.NewTracer(8), recorder.New(256)
	stages := obs.NewStageMetrics(reg)
	cfg := wired.controller("ctl-1").cfg
	cfg.Tracer, cfg.Stages, cfg.Recorder = tracer, stages, rec
	plain, full := bare.controller("ctl-1"), New(cfg)
	if plain.cfg.Tracer != nil || plain.cfg.Stages != nil || plain.cfg.Recorder != nil {
		t.Fatal("the bare controller is instrumented")
	}

	ctx := context.Background()
	script := []struct {
		name string
		feed []power.Watts // nil: step again on the same snapshot
		want func(StepOutcome) bool
	}{
		{"idle", []power.Watts{80 * power.KW, 80 * power.KW, 80 * power.KW, 80 * power.KW},
			func(o StepOutcome) bool { return !o.Overdraw && o.Restored == 0 }},
		{"overdraw", []power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW},
			func(o StepOutcome) bool { return o.Overdraw && o.Enforced > 0 }},
		{"stale", nil,
			func(o StepOutcome) bool { return o.Overdraw && o.Planned == nil }},
		{"shed", []power.Watts{0, 101 * power.KW, 100 * power.KW, 101 * power.KW},
			func(o StepOutcome) bool { return o.Overdraw && o.Enforced > 0 }},
		{"clear", []power.Watts{60 * power.KW, 70 * power.KW, 70 * power.KW, 70 * power.KW},
			func(o StepOutcome) bool { return !o.Overdraw && o.Restored > 0 }},
	}
	for _, step := range script {
		if step.feed != nil {
			feedStamped(bare, step.feed)
			feedStamped(wired, step.feed)
		}
		got, instrumented := plain.StepContext(ctx), full.StepContext(ctx)
		if !step.want(got) {
			t.Fatalf("%s: outcome %+v is not the scripted one", step.name, got)
		}
		if !reflect.DeepEqual(got, instrumented) {
			t.Fatalf("%s: bare controller %+v, instrumented %+v", step.name, got, instrumented)
		}
	}

	// Three overdraw rounds were traced, oldest last; two got as far as
	// acting and are what the stage metrics hold.
	recent := tracer.Recent()
	if notes := []string{recent[2].Note, recent[1].Note, recent[0].Note}; len(recent) != 3 ||
		!reflect.DeepEqual(notes, []string{"", "stale-skip", ""}) {
		t.Fatalf("trace notes %q over %d traces, want shed, stale-skip, shed", notes, len(recent))
	}
	wantSpans := []obs.Span{
		{Name: "sample", Start: wired.now, End: wired.now.Add(100 * time.Millisecond)},
		{Name: "queue", Start: wired.now.Add(100 * time.Millisecond), End: wired.now.Add(300 * time.Millisecond)},
		{Name: "view", Start: wired.now.Add(300 * time.Millisecond), End: wired.now.Add(time.Second)},
	}
	for i := range wantSpans { // the second shed read the reading fed before the last
		wantSpans[i].Start, wantSpans[i].End = wantSpans[i].Start.Add(-2*time.Second), wantSpans[i].End.Add(-2*time.Second)
	}
	shedAt := wired.now.Add(-time.Second) // a second after that reading: where its detect, plan and act sit
	for _, name := range []string{"detect", "plan", "act"} {
		wantSpans = append(wantSpans, obs.Span{Name: name, Start: shedAt, End: shedAt})
	}
	if shed := recent[0]; !reflect.DeepEqual(shed.Spans, wantSpans) || !shed.Start.Equal(wantSpans[0].Start) || !shed.End.Equal(shedAt) {
		t.Errorf("second shed traced as %+v, want %v..%v with spans %+v", shed, wantSpans[0].Start, shedAt, wantSpans)
	}
	if stale := recent[1]; len(stale.Spans) != 4 || stale.Spans[3].Name != "detect" || !stale.End.Equal(stale.Spans[3].End) {
		t.Errorf("stale-skip round traced as %+v, want four spans ending at detect", stale)
	}
	wantMax := [obs.NumStages]float64{0.1, 0.2, 0.7}
	for st, d := range stages.Digest() {
		if d.Count != 2 || d.Max != wantMax[st] || d.Sum != 2*wantMax[st] {
			t.Errorf("stage %s: count %d sum %v max %v, want 2 rounds of exactly %vs", d.Stage, d.Count, d.Sum, d.Max, wantMax[st])
		}
		// Both rounds tie: the join stays with the first shed.
		first := recent[2]
		if d.Trace != first.Seq || d.Episode != first.Episode || d.Event != first.Root || d.Event == 0 {
			t.Errorf("stage %s joined to trace %d episode %d event %d, want the first shed's %d/%d/%d",
				d.Stage, d.Trace, d.Episode, d.Event, first.Seq, first.Episode, first.Root)
		}
	}
}
