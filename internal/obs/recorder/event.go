// Package recorder is Flex's flight recorder: a bounded, append-only log
// of every causally-significant event on the shed-decision path —
// telemetry publication/arrival/drop, consensus verdicts, overdraw
// detection, plan start/commit/abort with the chosen actions and their
// impact scores, and every rack-manager dispatch, ack, failure and
// watchdog alert.
//
// The paper's safety argument (§V–VI) is reconstructed per episode: which
// UPS tripped, which samples the controller saw, which racks it shed and
// how far into the trip curve it got. Counters answer "how much"; the
// recorder answers "what happened and why" for any single episode, and
// feeds cmd/flexreplay, which re-drives controller.Planner from the
// recorded inputs and diffs the decisions.
//
// Events form causal chains through parent sequence numbers:
//
//	SamplePublish → SampleArrive → OverdrawDetect → PlanStart →
//	ActionPlanned → ActionDispatch → ActionAck/ActionFail
//
// Emission is lock-cheap (one short mutex hold, no allocation) so it can
// sit on the telemetry hot path, mirroring the obs registry's zero-alloc
// discipline. Timestamps are always caller-supplied from an injected
// clock.Clock — the recorder never reads the wall clock, so virtual-clock
// recordings replay bit-identically.
package recorder

import (
	"fmt"
	"time"
)

// Type classifies an event. The zero value TypeUnknown never appears in a
// recorded stream; filters use it as a wildcard.
type Type uint8

// Event taxonomy. See DESIGN.md "Flight recorder" for the field semantics
// of each type.
const (
	TypeUnknown Type = iota
	// TypeMeta carries the episode log header (replay.Header JSON in
	// Detail) — always the first event of a recorded run.
	TypeMeta
	// TypeSamplePublish: a poller published a sample. Subject=device,
	// Actor=poller, Value=watts, Aux=1 when valid.
	TypeSamplePublish
	// TypeSampleArrive: a view (LatestPower) accepted a sample.
	// Subject=device, Actor=view role, Value=watts, Cause=publish event.
	TypeSampleArrive
	// TypeSampleDrop: a broker dropped samples from a lagging subscriber
	// buffer. Subject=device, Actor=broker, Aux=count, Cause=publish
	// event.
	TypeSampleDrop
	// TypeConsensusVerdict: a logical meter reached median consensus.
	// Subject=device, Value=median watts, Aux=readable meter count.
	TypeConsensusVerdict
	// TypeConsensusDisagree: physical meters disagreed beyond the
	// threshold and the median masked it. Subject=device, Value=relative
	// spread, Cause=verdict event.
	TypeConsensusDisagree
	// TypeConsensusQuorumLoss: fewer than quorum meters were readable.
	// Subject=device, Aux=readable meter count.
	TypeConsensusQuorumLoss
	// TypeUPSFail / TypeUPSRecover: the experiment harness failed or
	// recovered a UPS, or a UPS tripped on its overload curve
	// (Detail="trip"). Subject=UPS name.
	TypeUPSFail
	TypeUPSRecover
	// TypeOverdrawDetect: a controller observed UPS power above
	// capacity−buffer. Subject=UPS name, Actor=controller, Value=measured
	// watts, Score=capacity watts, Cause=the sample-arrive event it read.
	TypeOverdrawDetect
	// TypeStaleSkip: a controller deferred re-planning because the
	// snapshot predates its last enforcement. Actor=controller,
	// Cause=detect event.
	TypeStaleSkip
	// TypePlanStart: Algorithm 1 began. Actor=controller, Cause=detect
	// event, Aux=len(acted) at plan time.
	TypePlanStart
	// TypeActionPlanned: one chosen corrective action. Subject=rack,
	// Actor=controller, Value=recovered watts, Score=impact,
	// Aux=ActionKind, Detail=workload, Cause=plan-start event.
	TypeActionPlanned
	// TypePlanCommit: the plan completed. Aux=action count,
	// Value=total recovered watts, Detail="insufficient" when shaveable
	// power ran out, Cause=plan-start event.
	TypePlanCommit
	// TypePlanAbort: the planning budget (or caller ctx) expired mid-plan
	// and the partial prefix was kept. Aux=actions kept, Cause=plan-start
	// event.
	TypePlanAbort
	// TypePlanError: planning failed outright. Detail=error,
	// Cause=plan-start event.
	TypePlanError
	// TypeEpisodeClose: the overdraw cleared. Actor=controller,
	// Value=shed latency in seconds.
	TypeEpisodeClose
	// TypeActionDispatch: an actuation command left for the rack manager.
	// Subject=rack, Actor=issuing controller, Detail=kind
	// ("throttle"/"shutdown"/"restore"), Value=cap watts,
	// Cause=action-planned event.
	TypeActionDispatch
	// TypeActionAck: the rack manager applied the command. Aux=1 when the
	// state actually changed (0 for an idempotent no-op),
	// Cause=dispatch event.
	TypeActionAck
	// TypeActionFail: the rack manager refused the command.
	// Detail=error, Cause=dispatch event.
	TypeActionFail
	// TypeWatchdogAlert: the §VI background verification service found a
	// broken actuation path. Subject=rack, Detail=reason.
	TypeWatchdogAlert
	// TypeSLOBreach: a safety SLO's burn rate crossed its alerting
	// threshold. Subject=objective name, Actor="slo", Value=burn rate,
	// Score=threshold, Episode=the open overdraw episode when the
	// objective is episode-scoped (shed-budget), Detail=reason.
	TypeSLOBreach
	// TypeSLORecover: the objective's burn rate fell back under the
	// threshold. Subject=objective name, Actor="slo", Value=burn rate,
	// Cause=the matching slo-breach event, Episode mirrors the breach.
	TypeSLORecover
	// TypeProbeFail: the continuous what-if probe found a UPS whose
	// hypothetical failure has no feasible shed plan inside the budget.
	// Subject=UPS name, Actor="slo", Value=uncovered watts,
	// Detail=reason ("insufficient" or the planner error).
	TypeProbeFail

	numTypes // sentinel; keep last
)

var typeNames = [numTypes]string{
	TypeUnknown:             "unknown",
	TypeMeta:                "meta",
	TypeSamplePublish:       "sample-publish",
	TypeSampleArrive:        "sample-arrive",
	TypeSampleDrop:          "sample-drop",
	TypeConsensusVerdict:    "consensus-verdict",
	TypeConsensusDisagree:   "consensus-disagree",
	TypeConsensusQuorumLoss: "consensus-quorum-loss",
	TypeUPSFail:             "ups-fail",
	TypeUPSRecover:          "ups-recover",
	TypeOverdrawDetect:      "overdraw-detect",
	TypeStaleSkip:           "stale-skip",
	TypePlanStart:           "plan-start",
	TypeActionPlanned:       "action-planned",
	TypePlanCommit:          "plan-commit",
	TypePlanAbort:           "plan-abort",
	TypePlanError:           "plan-error",
	TypeEpisodeClose:        "episode-close",
	TypeActionDispatch:      "action-dispatch",
	TypeActionAck:           "action-ack",
	TypeActionFail:          "action-fail",
	TypeWatchdogAlert:       "watchdog-alert",
	TypeSLOBreach:           "slo-breach",
	TypeSLORecover:          "slo-recover",
	TypeProbeFail:           "probe-fail",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if t < numTypes {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a taxonomy name ("plan-start") back to its Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if name == s {
			return Type(t), nil
		}
	}
	return TypeUnknown, fmt.Errorf("recorder: unknown event type %q", s)
}

// MarshalJSON renders the type as its taxonomy name, so JSONL logs are
// self-describing.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the taxonomy name.
func (t *Type) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("recorder: malformed event type %s", b)
	}
	v, err := ParseType(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// Event is one recorded occurrence. The struct is a fixed-size value —
// copying it into the ring allocates nothing — and its generic fields
// (Value, Score, Aux, Detail) are interpreted per Type as documented on
// the type constants.
type Event struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based).
	// Ring order and JSONL order are both Seq order.
	Seq uint64 `json:"seq"`
	// Cause is the Seq of the parent event (0 for chain roots), forming
	// the sample → detection → plan → action causal chains.
	Cause uint64 `json:"cause,omitempty"`
	// Episode groups the events of one overdraw episode (0 when the
	// event is not episode-scoped, e.g. routine telemetry).
	Episode uint64 `json:"episode,omitempty"`
	// Time is the caller-supplied clock.Clock timestamp.
	Time time.Time `json:"time"`
	Type Type      `json:"type"`
	// Actor is the emitting component instance (controller name, poller
	// name, view role, "emu", "watchdog").
	Actor string `json:"actor,omitempty"`
	// Subject is the device the event is about (UPS name or rack ID).
	Subject string  `json:"subject,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Score   float64 `json:"score,omitempty"`
	Aux     int64   `json:"aux,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}
