package emu

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"flex/internal/fleet"
	"flex/internal/obs"
	"flex/internal/obs/recorder"
	"flex/internal/obs/slo"
)

// TestFleetLatencyAttribution is the reconciliation contract of the
// latency waterfalls: a recorded 10-room run must stitch the failed
// room's overdraw episode into a waterfall whose per-stage totals tile
// the episode span, the episode span must reconcile with the measured
// detect→shed latency to within one telemetry cadence, every stage's
// largest observation must sit inside its carve of the 10s budget, and
// each must resolve to a real flight-recorder event.
func TestFleetLatencyAttribution(t *testing.T) {
	rec := recorder.New(1 << 16)
	res, err := RunFleet(context.Background(), FleetConfig{
		Rooms: 10, FailRoom: 4, FailUPS: 1, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stage digests: in timeline order, observed, inside the budget carve.
	if len(res.Stages) != int(obs.NumStages) {
		t.Fatalf("got %d stage digests, want %d", len(res.Stages), obs.NumStages)
	}
	budgets := slo.StageBudgets()
	for i, stg := range obs.Stages() {
		st := res.Stages[i]
		if st.Stage != stg.String() {
			t.Fatalf("stage %d = %q, want %q (timeline order)", i, st.Stage, stg)
		}
		if st.Count == 0 {
			t.Fatalf("stage %s never observed", st.Stage)
		}
		if b := budgets[stg].Seconds(); st.Max > b {
			t.Fatalf("stage %s max %.3fs over its %.1fs budget carve", st.Stage, st.Max, b)
		}
		if st.Sum < st.Max || st.Sum > st.Max*float64(st.Count) {
			t.Fatalf("stage %s: sum %.3fs is not between max %.3fs and count %d x max", st.Stage, st.Sum, st.Max, st.Count)
		}
		if st.Episode == 0 || st.Event == 0 || st.Trace == 0 {
			t.Fatalf("stage %s max not joined to the recorder and tracer: %+v", st.Stage, st)
		}
		var evs []recorder.Event
		for _, e := range rec.Snapshot() {
			if e.Seq == st.Event {
				evs = append(evs, e)
			}
		}
		if len(evs) != 1 {
			t.Fatalf("stage %s max event %d not found in the recorder", st.Stage, st.Event)
		}
		if evs[0].Episode != st.Episode {
			t.Fatalf("stage %s max event %d belongs to episode %d, digest says %d",
				st.Stage, st.Event, evs[0].Episode, st.Episode)
		}
	}
	// The aggregator folds the same digests into the fleet snapshot.
	if !reflect.DeepEqual(res.Snapshot.Stages, res.Stages) {
		t.Fatalf("snapshot stages %+v, run stages %+v", res.Snapshot.Stages, res.Stages)
	}

	// The failed room's stitched waterfall.
	var ep *fleet.EpisodeTrace
	for i := range res.Episodes {
		if res.Episodes[i].Room == "room-004" {
			ep = &res.Episodes[i]
			break
		}
	}
	if ep == nil {
		t.Fatalf("no stitched episode for room-004 in %d episodes", len(res.Episodes))
	}
	if ep.Root == 0 {
		t.Fatal("failed room's episode has no recorder root")
	}
	if chain := recorder.ApplyFilter(rec.Snapshot(), recorder.Filter{Episode: ep.Episode}); len(chain) == 0 {
		t.Fatalf("episode %d resolves to no recorder events", ep.Episode)
	}
	var sum float64
	for _, v := range ep.TotalsSeconds {
		sum += v
	}
	if math.Abs(sum-ep.TotalSeconds) > 1e-6 {
		t.Fatalf("stage totals %.6fs do not tile the %.6fs episode span", sum, ep.TotalSeconds)
	}
	if d := math.Abs(res.ShedLatency.Seconds() - ep.TotalSeconds); d > 2.5 {
		t.Fatalf("episode span %.3fs vs measured shed latency %v: off by %.3fs, want within 2.5s",
			ep.TotalSeconds, res.ShedLatency, d)
	}
	// Spans are offset-ordered and stay inside the episode.
	for _, sp := range ep.Stages {
		if sp.OffsetSeconds < 0 || sp.OffsetSeconds+sp.DurationSeconds > ep.TotalSeconds+1e-6 {
			t.Fatalf("span %+v escapes the [0, %.3fs] episode window", sp, ep.TotalSeconds)
		}
	}
}

// spanStats is what one stage's spans add up to over a set of traces.
type spanStats struct {
	count    uint64
	sum, max float64
}

// completedRoundSpans folds, oldest round first, the spans of every round
// that got as far as acting — the rounds the stage metrics observe. A
// stale-skip or plan-error round is traced but not measured.
func completedRoundSpans(recent []obs.Trace) map[string]spanStats {
	stats := map[string]spanStats{}
	for i := len(recent) - 1; i >= 0; i-- { // Recent is newest first
		tr := recent[i]
		if tr.Note == "stale-skip" || tr.Note == "plan-error" {
			continue
		}
		for _, sp := range tr.Spans {
			s := stats[sp.Name]
			s.count++
			s.sum += sp.Duration().Seconds()
			s.max = math.Max(s.max, sp.Duration().Seconds())
			stats[sp.Name] = s
		}
	}
	return stats
}

func checkDigestMatchesSpans(t *testing.T, digest []obs.StageDigest, recent []obs.Trace) {
	t.Helper()
	if len(recent) == 0 {
		t.Fatal("the tracer retained no rounds")
	}
	stats := completedRoundSpans(recent)
	for _, d := range digest {
		s := stats[d.Stage]
		if d.Count != s.count || d.Sum != s.sum || d.Max != s.max {
			t.Errorf("stage %s: digest count %d sum %v max %v, the tracer's spans say %d, %v, %v",
				d.Stage, d.Count, d.Sum, d.Max, s.count, s.sum, s.max)
		}
	}
}

// TestStageDigestMatchesTracerSpans: the trace and the stage metrics are
// fed from one array of instants, so for every stage the digest's count,
// sum and max are exactly those of the stage's spans over the tracer's
// completed rounds — on TestRunFleetGolden's run, where every stage of a
// shedding round takes no virtual time, and on the single-room episode,
// whose consensus pipeline does not stamp samples: its rounds have the
// three compute stages only.
func TestStageDigestMatchesTracerSpans(t *testing.T) {
	t.Run("fleet", func(t *testing.T) {
		var fl *fleet.Fleet
		fleetHook = func(f *fleet.Fleet) { fl = f }
		defer func() { fleetHook = nil }()
		res, err := RunFleet(context.Background(), FleetConfig{ // TestRunFleetGolden's
			Rooms: 3, FailRoom: 1, FailUPS: 1, FailAt: 10 * time.Second, Duration: 40 * time.Second,
			Controllers: 2, SaturateRoom: 2, SaturateFactor: 8, Seed: 7,
			Obs: obs.NewRegistry(), Recorder: recorder.New(1 << 18),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDigestMatchesSpans(t, res.Stages, fl.Tracer().Recent())
		for _, d := range res.Stages {
			if d.Count == 0 {
				t.Errorf("stage %s never observed: the run checks nothing about it", d.Stage)
			}
			if d.Max != 0 {
				t.Errorf("stage %s: max %vs on a run whose shedding rounds read a sample pumped the same tick", d.Stage, d.Max)
			}
		}
	})
	t.Run("room", func(t *testing.T) {
		reg, tracer := obs.NewRegistry(), obs.NewTracer(256)
		cfg := quickObsConfig(reg, tracer)
		cfg.Recorder = recorder.New(1 << 18)
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		digest := obs.NewStageMetrics(reg).Digest() // the registry's one instance: Run fed it
		checkDigestMatchesSpans(t, digest[:], tracer.Recent())
		for st, d := range digest {
			if stamped := obs.Stage(st) < obs.StageDetect; stamped != (d.Count == 0) {
				t.Errorf("stage %s: %d observations (stamp-derived stage: %v)", d.Stage, d.Count, stamped)
			}
		}
	})
}
