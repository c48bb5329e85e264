package fleet

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"flex/internal/obs"
)

// StageSummary is one critical-path stage's fleet-wide digest, folded
// into Snapshot.Stages by AggregateOnce and served at /fleet.
type StageSummary = obs.StageDigest

// StageSummaries is the digest of the fleet's shared stage metrics, in
// timeline order (nil without Config.Obs).
func (f *Fleet) StageSummaries() []StageSummary {
	if f.stages == nil {
		return nil
	}
	d := f.stages.Digest()
	return d[:]
}

// StageSpan is one stage slice of an episode waterfall, offset from the
// episode's start (the triggering sample's MeasuredAt when stamped).
type StageSpan struct {
	Stage           string  `json:"stage"`
	OffsetSeconds   float64 `json:"offset_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// EpisodeTrace is one overdraw episode's stitched waterfall: every
// controller-round trace tagged with the episode id, merged into a
// single meter-to-actuation timeline. Gaps between rounds appear as
// "wait" stages, so the per-stage totals tile the episode span and their
// sum reconciles with TotalSeconds by construction.
type EpisodeTrace struct {
	Episode uint64 `json:"episode"`
	// Room is parsed from the trace name ("flex-online/<room>/ctl-N").
	Room string `json:"room,omitempty"`
	// Root is the flight-recorder sequence of the episode's first detect
	// event (0 when unrecorded) — the /events join key.
	Root         uint64      `json:"root,omitempty"`
	Start        time.Time   `json:"start"`
	End          time.Time   `json:"end"`
	TotalSeconds float64     `json:"total_seconds"`
	Traces       int         `json:"traces"`
	Stages       []StageSpan `json:"stages"`
	// TotalsSeconds sums stage durations by stage name across the
	// episode's rounds ("wait" included).
	TotalsSeconds map[string]float64 `json:"totals_seconds"`
}

// EpisodeTraces stitches the fleet tracer's retained traces into
// per-episode waterfalls, newest episode first. limit keeps the newest
// limit episodes (0 = all). Nil without Config.Obs.
func (f *Fleet) EpisodeTraces(limit int) []EpisodeTrace {
	if f.tracer == nil {
		return nil
	}
	recent := f.tracer.Recent() // newest first
	byEp := make(map[uint64][]obs.Trace)
	var order []uint64
	for _, t := range recent {
		if t.Episode == 0 {
			continue
		}
		if _, seen := byEp[t.Episode]; !seen {
			order = append(order, t.Episode)
		}
		byEp[t.Episode] = append(byEp[t.Episode], t)
	}
	if limit > 0 && len(order) > limit {
		order = order[:limit]
	}
	out := make([]EpisodeTrace, 0, len(order))
	for _, ep := range order {
		out = append(out, stitchEpisode(ep, byEp[ep]))
	}
	return out
}

// stitchEpisode merges one episode's round traces into a waterfall. A
// later round's early stages can overlap the previous round — a
// stale-skip round re-reads the very sample the acting round consumed,
// so its sample/queue/view spans reach back before the previous round
// ended. Each span is therefore clipped to an attribution watermark
// (the latest instant already attributed): every wall-clock instant of
// the episode lands in exactly one stage, which is what makes the
// per-stage totals tile the span and their sum equal TotalSeconds by
// construction.
func stitchEpisode(ep uint64, traces []obs.Trace) EpisodeTrace {
	sort.Slice(traces, func(i, j int) bool { return traces[i].Seq < traces[j].Seq })
	et := EpisodeTrace{
		Episode:       ep,
		Room:          roomOfTrace(traces[0].Name),
		Start:         traces[0].Start,
		End:           traces[0].End,
		Traces:        len(traces),
		TotalsSeconds: make(map[string]float64),
	}
	watermark := et.Start
	for _, t := range traces {
		if et.Root == 0 && t.Root != 0 {
			et.Root = t.Root
		}
		if t.End.After(et.End) {
			et.End = t.End
		}
		// A round starting after the attributed timeline ends is budget
		// spent waiting on the next telemetry cadence — attribute it.
		if gap := t.Start.Sub(watermark); gap > 0 {
			et.Stages = append(et.Stages, StageSpan{
				Stage:           "wait",
				OffsetSeconds:   watermark.Sub(et.Start).Seconds(),
				DurationSeconds: gap.Seconds(),
			})
			et.TotalsSeconds["wait"] += gap.Seconds()
			watermark = t.Start
		}
		for _, s := range t.Spans {
			if s.End.Before(watermark) {
				continue // fully attributed by an earlier round
			}
			start := s.Start
			if start.Before(watermark) {
				start = watermark
			}
			d := s.End.Sub(start)
			et.Stages = append(et.Stages, StageSpan{
				Stage:           s.Name,
				OffsetSeconds:   start.Sub(et.Start).Seconds(),
				DurationSeconds: d.Seconds(),
			})
			et.TotalsSeconds[s.Name] += d.Seconds()
			if s.End.After(watermark) {
				watermark = s.End
			}
		}
	}
	et.TotalSeconds = et.End.Sub(et.Start).Seconds()
	return et
}

// roomOfTrace extracts the room from a shard controller trace name of the
// form "flex-online/<room>/ctl-N" (empty when the name has another
// shape, e.g. a single-room controller's "flex-online/flex-ctl-1").
func roomOfTrace(name string) string {
	rest, ok := strings.CutPrefix(name, "flex-online/")
	if !ok {
		return ""
	}
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		return rest[:i]
	}
	return ""
}

// TracesHandler returns the /fleet/traces endpoint: stitched per-episode
// stage waterfalls plus the fleet stage digests, as JSON. ?episode=N
// narrows to one episode; ?limit=K keeps the newest K episodes.
func (f *Fleet) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		q := r.URL.Query()
		limit := 0
		if s := q.Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "bad limit parameter: "+strconv.Quote(s), http.StatusBadRequest)
				return
			}
			limit = v
		}
		episodes := f.EpisodeTraces(limit)
		if s := q.Get("episode"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad episode parameter: "+strconv.Quote(s), http.StatusBadRequest)
				return
			}
			filtered := episodes[:0]
			for _, e := range episodes {
				if e.Episode == v {
					filtered = append(filtered, e)
				}
			}
			episodes = filtered
		}
		out := struct {
			Episodes []EpisodeTrace `json:"episodes"`
			Stages   []StageSummary `json:"stages"`
		}{Episodes: episodes, Stages: f.StageSummaries()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
