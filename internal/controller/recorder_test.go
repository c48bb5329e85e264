package controller

import (
	"context"
	"testing"

	"flex/internal/impact"
	"flex/internal/obs/recorder"
	"flex/internal/power"
)

// findEvent returns the first event matching pred, or nil.
func findEvent(events []recorder.Event, pred func(*recorder.Event) bool) *recorder.Event {
	for i := range events {
		if pred(&events[i]) {
			return &events[i]
		}
	}
	return nil
}

// TestRecorderCausalChain drives one overdraw through a recorded
// controller and walks the full Cause chain: triggering UPS sample →
// overdraw detection → plan start → planned action → dispatch → ack.
func TestRecorderCausalChain(t *testing.T) {
	h := newHarness(t)
	rec := recorder.New(0)
	h.upsView.SetRecorder(rec, "ups-view")
	h.rackView.SetRecorder(rec, "rack-view")
	h.mgr.Recorder = rec
	c := New(Config{
		Name:     "ctl-1",
		Clock:    h.clk,
		Topo:     h.topo,
		Racks:    h.racks,
		UPSView:  h.upsView,
		RackView: h.rackView,
		Actuator: h.mgr,
		Scenario: impact.Realistic1(),
		Buffer:   power.KW,
		Recorder: rec,
	})

	h.feed([]power.Watts{80 * power.KW, 80 * power.KW, 80 * power.KW, 80 * power.KW})
	if out := c.StepContext(context.Background()); out.Overdraw {
		t.Fatal("normal operation flagged overdraw")
	}
	if e := findEvent(rec.Snapshot(), func(e *recorder.Event) bool { return e.Type == recorder.TypeOverdrawDetect }); e != nil {
		t.Fatalf("overdraw event without overdraw: %+v", *e)
	}

	h.feed([]power.Watts{0, 107 * power.KW, 106 * power.KW, 107 * power.KW})
	out := c.StepContext(context.Background())
	if !out.Overdraw || out.Enforced == 0 {
		t.Fatalf("overdraw not enforced: %+v", out)
	}

	events := rec.Snapshot()
	detect := findEvent(events, func(e *recorder.Event) bool { return e.Type == recorder.TypeOverdrawDetect })
	if detect == nil {
		t.Fatal("no overdraw-detect event")
	}
	if detect.Episode == 0 {
		t.Fatal("detection did not open an episode")
	}
	if detect.Actor != "ctl-1" {
		t.Fatalf("detect actor = %q", detect.Actor)
	}

	// Root of the chain: the UPS sample-arrive the detection was made from.
	arrive := findEvent(events, func(e *recorder.Event) bool { return e.Seq == detect.Cause })
	if arrive == nil || arrive.Type != recorder.TypeSampleArrive {
		t.Fatalf("detect cause %d is not a sample-arrive event: %+v", detect.Cause, arrive)
	}
	if arrive.Actor != "ups-view" || arrive.Subject != detect.Subject {
		t.Fatalf("detect %q rooted at arrive %q/%q", detect.Subject, arrive.Actor, arrive.Subject)
	}

	planStart := findEvent(events, func(e *recorder.Event) bool {
		return e.Type == recorder.TypePlanStart && e.Cause == detect.Seq
	})
	if planStart == nil {
		t.Fatal("no plan-start chained to the detection")
	}
	commit := findEvent(events, func(e *recorder.Event) bool {
		return e.Type == recorder.TypePlanCommit && e.Cause == planStart.Seq
	})
	if commit == nil {
		t.Fatal("no plan-commit chained to the plan-start")
	}
	if commit.Aux != int64(len(out.Planned)) {
		t.Fatalf("commit counts %d actions, controller planned %d", commit.Aux, len(out.Planned))
	}

	var planned []*recorder.Event
	for i := range events {
		e := &events[i]
		if e.Type == recorder.TypeActionPlanned && e.Cause == planStart.Seq {
			planned = append(planned, e)
		}
	}
	if len(planned) != len(out.Planned) {
		t.Fatalf("%d action-planned events, %d planned actions", len(planned), len(out.Planned))
	}
	for i, pe := range planned {
		a := out.Planned[i]
		if pe.Subject != a.Rack || pe.Aux != int64(a.Kind) {
			t.Fatalf("planned event %d = %q/%v, action = %q/%v", i, pe.Subject, pe.Aux, a.Rack, a.Kind)
		}
		if pe.Episode != detect.Episode {
			t.Fatalf("planned event episode %d, detect episode %d", pe.Episode, detect.Episode)
		}
		dispatch := findEvent(events, func(e *recorder.Event) bool {
			return e.Type == recorder.TypeActionDispatch && e.Cause == pe.Seq
		})
		if dispatch == nil {
			t.Fatalf("no dispatch chained to planned action %s", a.Rack)
		}
		ack := findEvent(events, func(e *recorder.Event) bool {
			return e.Type == recorder.TypeActionAck && e.Cause == dispatch.Seq
		})
		if ack == nil {
			t.Fatalf("no ack chained to dispatch for %s", a.Rack)
		}
		if ack.Subject != a.Rack || ack.Aux != 1 {
			t.Fatalf("ack %+v not an effective action on %s", *ack, a.Rack)
		}
	}

	// The episode filter with its causes must contain the whole chain,
	// including the zero-episode sample-arrive pulled in through Cause
	// links.
	chain := recorder.ApplyFilter(events, recorder.Filter{Episode: detect.Episode, WithCauses: true})
	want := map[uint64]bool{arrive.Seq: true, detect.Seq: true, planStart.Seq: true, commit.Seq: true}
	for _, pe := range planned {
		want[pe.Seq] = true
	}
	for _, e := range chain {
		delete(want, e.Seq)
	}
	if len(want) != 0 {
		t.Fatalf("episode closure missing %d chain events: %v", len(want), want)
	}

	// Recovery closes the episode and restores through the same provenance
	// path.
	h.feed([]power.Watts{80 * power.KW, 60 * power.KW, 60 * power.KW, 60 * power.KW})
	if out := c.StepContext(context.Background()); out.Restored == 0 {
		t.Fatalf("no restores after recovery: %+v", out)
	}
	events = rec.Snapshot()
	closeEv := findEvent(events, func(e *recorder.Event) bool { return e.Type == recorder.TypeEpisodeClose })
	if closeEv == nil || closeEv.Episode != detect.Episode {
		t.Fatalf("episode not closed: %+v", closeEv)
	}
	restore := findEvent(events, func(e *recorder.Event) bool {
		return e.Type == recorder.TypeActionAck && e.Detail == "restore" && e.Actor == "ctl-1"
	})
	if restore == nil {
		t.Fatal("no recorded restore ack")
	}
}
