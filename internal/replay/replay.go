// Package replay deterministically re-drives Flex-Online planning from a
// flight-recorder episode log and diffs the replayed decisions against
// the recorded ones, turning every shed episode into a reproducible
// artifact (cmd/flexreplay is the CLI front end).
//
// A recorded run starts with a meta event whose Detail is a JSON Header:
// the room, scenario, safety margins and managed-rack set the controllers
// ran with. Replay reconstructs each controller's exact PlanInput from
// the event stream — sample-arrive events rebuild the telemetry views,
// action-ack events rebuild the one acted set, the rack manager's record
// of what is shed that every primary plans from — and runs
// Algorithm 1 (one controller.Planner for the whole log) at every recorded
// plan-start, advancing a virtual clock to the recorded timestamps.
// Because Algorithm 1 is deterministic in its inputs, a faithful log
// replays to the identical action sequence; any diff means the log is
// incomplete or the planner changed behaviour.
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"flex/internal/clock"
	"flex/internal/controller"
	"flex/internal/impact"
	"flex/internal/obs/recorder"
	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// View roles used in sample-arrive events. Recorders (emu, flexsim) tag
// the controller-facing views with these so replay knows which view a
// sample landed in.
const (
	RoleUPSView  = "ups-view"
	RoleRackView = "rack-view"
)

// HeaderVersion is the current header schema version.
const HeaderVersion = 1

// Header is the episode-log preamble, carried as JSON in the Detail of
// the leading meta event. It pins everything a replay needs that the
// event stream itself does not carry.
type Header struct {
	Version int `json:"version"`
	// Room names the topology: "emulation" (placement.EmulationRoom) or
	// "paper" (placement.PaperRoom).
	Room string `json:"room"`
	// Start is the virtual-clock origin of the run.
	Start time.Time `json:"start"`
	// Scenario names the impact scenario (impact.Figure11Scenarios or
	// "Default").
	Scenario string `json:"scenario"`
	// Buffer is the controllers' safety margin in watts (0 = the
	// controller default, 1% of the smallest UPS capacity).
	Buffer float64 `json:"buffer"`
	// Utilization, Seed and Controllers are informational.
	Utilization float64  `json:"utilization,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Controllers []string `json:"controllers,omitempty"`
	// Racks is the managed-rack set handed to every controller.
	Racks []HeaderRack `json:"racks"`
}

// HeaderRack mirrors controller.ManagedRack in a JSON-stable shape.
type HeaderRack struct {
	ID        string  `json:"id"`
	Workload  string  `json:"workload"`
	Category  int     `json:"category"`
	Pair      int     `json:"pair"`
	Allocated float64 `json:"allocated"`
	FlexPower float64 `json:"flex_power"`
	Priority  int     `json:"priority,omitempty"`
}

// NewHeader builds a Header from the live objects a recording harness
// holds.
func NewHeader(room string, start time.Time, scenario string, buffer power.Watts, racks []controller.ManagedRack) Header {
	h := Header{
		Version:  HeaderVersion,
		Room:     room,
		Start:    start,
		Scenario: scenario,
		Buffer:   float64(buffer),
		Racks:    make([]HeaderRack, len(racks)),
	}
	for i, r := range racks {
		h.Racks[i] = HeaderRack{
			ID:        r.ID,
			Workload:  r.Workload,
			Category:  int(r.Category),
			Pair:      int(r.Pair),
			Allocated: float64(r.Allocated),
			FlexPower: float64(r.FlexPower),
			Priority:  r.Priority,
		}
	}
	return h
}

// MetaEvent renders the header as the leading meta event of a recording.
// Its Detail is the header as json.Marshal encodes it, written into a
// buffer MetaEvent sizes itself rather than encoding/json's pooled one, so
// that what a recording allocates does not depend on what the pool holds.
func (h Header) MetaEvent(at time.Time, actor string) (recorder.Event, error) {
	detail, ok := h.plainJSON()
	if !ok {
		b, err := json.Marshal(h)
		if err != nil {
			return recorder.Event{}, err
		}
		detail = string(b)
	}
	return recorder.Event{
		Type:   recorder.TypeMeta,
		Time:   at,
		Actor:  actor,
		Detail: detail,
	}, nil
}

// plainJSON is h as json.Marshal encodes it, when that takes no escaping:
// ok is false, and json.Marshal has the last word, for a string outside
// printable ASCII or holding one of "\<>&, a float that is not finite, or
// a Start that MarshalJSON refuses.
func (h Header) plainJSON() (string, bool) {
	start, err := h.Start.MarshalJSON()
	if err != nil {
		return "", false
	}
	// Beside its strings, an emulation-room rack takes 90 bytes on average,
	// its flex power printed to 17 significant digits; an estimate short of
	// the header grows the buffer once.
	size := 128 + len(start) + len(h.Room) + len(h.Scenario)
	for _, c := range h.Controllers {
		size += len(c) + 3
	}
	for i := range h.Racks {
		size += 100 + len(h.Racks[i].ID) + len(h.Racks[i].Workload)
	}
	w := jsonWriter{ok: true}
	w.Grow(size)
	w.WriteString(`{"version":`)
	w.int(int64(h.Version))
	w.WriteString(`,"room":`)
	w.str(h.Room)
	w.WriteString(`,"start":`)
	w.Write(start)
	w.WriteString(`,"scenario":`)
	w.str(h.Scenario)
	w.WriteString(`,"buffer":`)
	w.float(h.Buffer)
	if h.Utilization != 0 {
		w.WriteString(`,"utilization":`)
		w.float(h.Utilization)
	}
	if h.Seed != 0 {
		w.WriteString(`,"seed":`)
		w.int(h.Seed)
	}
	if len(h.Controllers) > 0 {
		w.WriteString(`,"controllers":[`)
		for i, c := range h.Controllers {
			if i > 0 {
				w.WriteByte(',')
			}
			w.str(c)
		}
		w.WriteByte(']')
	}
	w.WriteString(`,"racks":`)
	if h.Racks == nil {
		w.WriteString("null")
	} else {
		w.WriteByte('[')
		for i := range h.Racks {
			r := &h.Racks[i]
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(`{"id":`)
			w.str(r.ID)
			w.WriteString(`,"workload":`)
			w.str(r.Workload)
			w.WriteString(`,"category":`)
			w.int(int64(r.Category))
			w.WriteString(`,"pair":`)
			w.int(int64(r.Pair))
			w.WriteString(`,"allocated":`)
			w.float(r.Allocated)
			w.WriteString(`,"flex_power":`)
			w.float(r.FlexPower)
			if r.Priority != 0 {
				w.WriteString(`,"priority":`)
				w.int(int64(r.Priority))
			}
			w.WriteByte('}')
		}
		w.WriteByte(']')
	}
	w.WriteByte('}')
	return w.String(), w.ok
}

// jsonWriter writes the JSON values a Header holds as encoding/json does;
// ok turns false at the first one that would need more than plainJSON
// does.
type jsonWriter struct {
	strings.Builder
	num [32]byte
	ok  bool
}

func (w *jsonWriter) int(v int64) { w.Write(strconv.AppendInt(w.num[:0], v, 10)) }

// float follows encoding/json's float64 encoder: the shortest 'f' form,
// the 'e' form below 1e-6 and from 1e21, with e-09 shortened to e-9.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.num[:0], f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.Write(b)
}

func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.ok = false
			return
		}
	}
	w.WriteByte('"')
	w.WriteString(s)
	w.WriteByte('"')
}

// PlanResult is the replay verdict for one recorded planning pass.
type PlanResult struct {
	// Seq is the recorded plan-start event sequence.
	Seq     uint64
	Episode uint64
	Actor   string
	// Recorded and Replayed are the action counts on each side.
	Recorded, Replayed int
	// Aborted is true when the recorded pass hit its budget; the
	// recorded actions are then checked as a prefix of the replayed full
	// plan instead of an exact match.
	Aborted bool
	Match   bool
	// Mismatch explains the first divergence when Match is false.
	Mismatch string
}

// Report summarizes a replay.
type Report struct {
	// Events is the total number of events consumed.
	Events int
	// Episodes is the number of distinct overdraw episodes seen.
	Episodes int
	Plans    []PlanResult
	Matched  int
	// Mismatched counts diverging plans; 0 means the decision diff is
	// empty and the log reproduces exactly.
	Mismatched int
	// Elapsed is the recorded span replayed on the virtual clock.
	Elapsed time.Duration
}

// DiffEmpty reports whether every recorded plan replayed identically.
func (r *Report) DiffEmpty() bool { return r.Mismatched == 0 }

// Replay re-drives every recorded planning pass and diffs the decisions.
// Events must be in sequence order (as returned by recorder.ReadEvents or
// Recorder.Snapshot) and must start with the meta header. ctx bounds the
// re-run planning passes exactly as it would bound live ones; replaying a
// long log is interruptible at every plan.
func Replay(ctx context.Context, events []recorder.Event) (*Report, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty event log")
	}
	if events[0].Type != recorder.TypeMeta {
		return nil, fmt.Errorf("replay: log does not start with a meta header (got %v); record with a header-emitting harness (flexsim -experiment fig13)", events[0].Type)
	}
	var hdr Header
	if err := json.Unmarshal([]byte(events[0].Detail), &hdr); err != nil {
		return nil, fmt.Errorf("replay: parsing meta header: %w", err)
	}
	if hdr.Version != HeaderVersion {
		return nil, fmt.Errorf("replay: header version %d, want %d", hdr.Version, HeaderVersion)
	}
	room, err := roomByName(hdr.Room)
	if err != nil {
		return nil, err
	}
	topo := room.Topo
	scenario, err := scenarioByName(hdr.Scenario)
	if err != nil {
		return nil, err
	}
	racks := make([]controller.ManagedRack, len(hdr.Racks))
	for i, r := range hdr.Racks {
		racks[i] = controller.ManagedRack{
			ID:        r.ID,
			Workload:  r.Workload,
			Category:  workload.Category(r.Category),
			Pair:      power.PDUPairID(r.Pair),
			Allocated: power.Watts(r.Allocated),
			FlexPower: power.Watts(r.FlexPower),
			Priority:  r.Priority,
		}
	}
	buffer := power.Watts(hdr.Buffer)
	if buffer == 0 {
		buffer = controller.DefaultBuffer(topo)
	}
	// Every recorded pass planned over the header's racks: prepare them once.
	planner := controller.NewPlanner(topo, racks, scenario)

	vclk := clock.NewVirtual(hdr.Start)
	last := hdr.Start
	upsView := make(map[string]power.Watts)
	rackView := make(map[string]power.Watts)
	acted := make(map[string]bool) // racks the rack manager holds off On
	episodes := make(map[uint64]bool)

	rep := &Report{Events: len(events)}
	for i := range events {
		e := &events[i]
		// Drive the virtual clock to the recorded instant; recordings are
		// seq-ordered and seq order never runs ahead of time order within
		// one emitter, but cross-emitter timestamps may interleave.
		if e.Time.After(last) {
			vclk.Advance(e.Time.Sub(last))
			last = e.Time
		}
		if e.Episode != 0 {
			episodes[e.Episode] = true
		}
		switch e.Type {
		case recorder.TypeSampleArrive:
			switch e.Actor {
			case RoleUPSView:
				upsView[e.Subject] = power.Watts(e.Value)
			case RoleRackView:
				rackView[e.Subject] = power.Watts(e.Value)
			}
		case recorder.TypeActionAck:
			switch e.Detail {
			case "throttle", "shutdown":
				acted[e.Subject] = true
			case "restore":
				delete(acted, e.Subject)
			}
		case recorder.TypePlanStart:
			pr := replayPlan(ctx, events[i:], e, topo, planner, buffer, upsView, rackView, acted)
			rep.Plans = append(rep.Plans, pr)
			if pr.Match {
				rep.Matched++
			} else {
				rep.Mismatched++
			}
		}
	}
	rep.Episodes = len(episodes)
	rep.Elapsed = vclk.Now().Sub(hdr.Start)
	return rep, nil
}

// replayPlan reconstructs the PlanInput visible to the recorded
// controller at its plan-start event, re-runs Algorithm 1, and diffs the
// outcome against the recorded action-planned events. tail begins at the
// plan-start event; the recorded actions and terminal (commit/abort/
// error) are found by scanning forward for events caused by it.
func replayPlan(ctx context.Context, tail []recorder.Event, start *recorder.Event,
	topo *power.Topology, planner *controller.Planner,
	buffer power.Watts,
	upsView, rackView map[string]power.Watts,
	acted map[string]bool) PlanResult {

	pr := PlanResult{Seq: start.Seq, Episode: start.Episode, Actor: start.Actor}

	// Recorded outcome.
	var recActions []*recorder.Event
	var terminal *recorder.Event
	for i := 1; i < len(tail) && terminal == nil; i++ {
		e := &tail[i]
		if e.Cause != start.Seq {
			continue
		}
		switch e.Type {
		case recorder.TypeActionPlanned:
			recActions = append(recActions, e)
		case recorder.TypePlanCommit, recorder.TypePlanAbort, recorder.TypePlanError:
			terminal = e
		}
	}
	pr.Recorded = len(recActions)
	if terminal == nil {
		pr.Mismatch = "recorded plan has no terminal event (truncated log?)"
		return pr
	}
	if terminal.Type == recorder.TypePlanError {
		// Nothing to diff: the recorded pass failed before choosing
		// actions. Count it as matched only if replay also fails.
		pr.Mismatch = "recorded plan errored: " + terminal.Detail
		return pr
	}
	pr.Aborted = terminal.Type == recorder.TypePlanAbort

	// Reconstructed input, exactly as Controller.StepContext builds it:
	// UPSes without a reading are assumed at capacity, inactivity is
	// inferred, and racks already acted on are excluded.
	ups := make([]power.Watts, len(topo.UPSes))
	for u := range topo.UPSes {
		if w, ok := upsView[topo.UPSes[u].Name]; ok {
			ups[u] = w
		} else {
			ups[u] = topo.UPSes[u].Capacity
		}
	}
	inactive := controller.InferInactiveUPSes(topo, ups, controller.DefaultInactiveThreshold)
	rackPower := make(map[string]power.Watts, len(rackView))
	for k, v := range rackView {
		rackPower[k] = v
	}
	replayed, insufficient, err := planner.Plan(ctx, controller.PlanInput{
		UPSPower:  ups,
		RackPower: rackPower,
		Inactive:  inactive,
		Buffer:    buffer,
		Acted:     acted,
	}, nil)
	if err != nil {
		pr.Mismatch = fmt.Sprintf("replayed plan errored: %v", err)
		return pr
	}
	pr.Replayed = len(replayed)

	// Diff. An aborted recording is a budget-truncated prefix of the full
	// deterministic plan; a committed recording must match exactly,
	// including the insufficient verdict.
	if pr.Aborted {
		if len(recActions) > len(replayed) {
			pr.Mismatch = fmt.Sprintf("aborted plan recorded %d actions, replay produced only %d", len(recActions), len(replayed))
			return pr
		}
	} else {
		if len(recActions) != len(replayed) {
			pr.Mismatch = fmt.Sprintf("recorded %d actions, replayed %d", len(recActions), len(replayed))
			return pr
		}
		recInsufficient := terminal.Detail == "insufficient"
		if recInsufficient != insufficient {
			pr.Mismatch = fmt.Sprintf("insufficient: recorded %v, replayed %v", recInsufficient, insufficient)
			return pr
		}
	}
	for i, re := range recActions {
		if why := actionDiff(re, replayed[i]); why != "" {
			pr.Mismatch = fmt.Sprintf("action %d: %s", i, why)
			return pr
		}
	}
	pr.Match = true
	return pr
}

func actionDiff(re *recorder.Event, a controller.PlannedAction) string {
	if re.Subject != a.Rack {
		return fmt.Sprintf("rack %s recorded, %s replayed", re.Subject, a.Rack)
	}
	if re.Aux != int64(a.Kind) {
		return fmt.Sprintf("%s: kind %v recorded, %v replayed", a.Rack, controller.ActionKind(re.Aux), a.Kind)
	}
	if !floatsClose(re.Value, float64(a.Recovered)) {
		return fmt.Sprintf("%s: recovered %.3f recorded, %.3f replayed", a.Rack, re.Value, float64(a.Recovered))
	}
	if !floatsClose(re.Score, a.Impact) {
		return fmt.Sprintf("%s: impact %.6f recorded, %.6f replayed", a.Rack, re.Score, a.Impact)
	}
	return ""
}

// floatsClose tolerates JSON round-trip and platform FMA noise; recorded
// and replayed values come from bit-identical inputs, so the bound is
// tight.
func floatsClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-6 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func roomByName(name string) (*placement.Room, error) {
	switch name {
	case "emulation":
		return placement.EmulationRoom(), nil
	case "paper":
		return placement.PaperRoom(), nil
	default:
		return nil, fmt.Errorf("replay: unknown room %q", name)
	}
}

func scenarioByName(name string) (impact.Scenario, error) {
	for _, s := range impact.Figure11Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	if d := impact.Default(); name == d.Name || name == "" {
		return d, nil
	}
	return impact.Scenario{}, fmt.Errorf("replay: unknown impact scenario %q", name)
}
