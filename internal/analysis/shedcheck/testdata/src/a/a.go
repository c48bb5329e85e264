// Fixture: discarding an error from a shed-critical call (publish, ack,
// actuation, planning) is flagged; checking, propagating, or counting the
// error is not, and non-critical calls may discard freely.
package a

import (
	"context"
	"errors"
)

type Actuator struct{}

func (Actuator) Shutdown(rack string) error               { return errors.New("unreachable") }
func (Actuator) Throttle(rack string, capW float64) error { return errors.New("unreachable") }
func (Actuator) Restore(rack string) error                { return errors.New("unreachable") }

// Op is the provenance the controller's actuation calls carry.
type Op struct{ Actor string }

func (Actuator) ShutdownOp(rack string, op Op) error               { return errors.New("unreachable") }
func (Actuator) ThrottleOp(rack string, capW float64, op Op) error { return errors.New("unreachable") }
func (Actuator) RestoreOp(rack string, op Op) error                { return errors.New("unreachable") }

type Publisher struct{}

func (Publisher) Publish(topic string, v float64) error { return nil }
func (Publisher) Ack(seq uint64) error                  { return nil }

// FireAndForgetPublisher mirrors the in-process broker: no error result,
// so there is nothing to discard.
type FireAndForgetPublisher struct{}

func (FireAndForgetPublisher) Publish(topic string, v float64) {}

func Plan(target float64) ([]string, bool, error) { return nil, false, nil }

func PlanContext(ctx context.Context, target float64) ([]string, bool, error) {
	return nil, false, nil
}

// Shutdowns only sounds critical: no suffix makes it Shutdown.
func Shutdowns() error { return nil }

func bad(a Actuator, p Publisher) {
	a.Shutdown("rack-1")      // want `error from shed-critical call Shutdown discarded`
	a.Throttle("rack-2", 1e3) // want `error from shed-critical call Throttle discarded`
	a.Restore("rack-3")       // want `error from shed-critical call Restore discarded`
	p.Publish("power/ups", 1) // want `error from shed-critical call Publish discarded`
	p.Ack(7)                  // want `error from shed-critical call Ack discarded`
	_ = a.Shutdown("rack-4")  // want `error from shed-critical call Shutdown assigned to _`
	Plan(5e6)                 // want `error from shed-critical call Plan discarded`

	// The forms the controller really calls.
	op := Op{Actor: "ctl-1"}
	a.ShutdownOp("rack-1", op)             // want `error from shed-critical call ShutdownOp discarded`
	a.ThrottleOp("rack-2", 1e3, op)        // want `error from shed-critical call ThrottleOp discarded`
	a.RestoreOp("rack-3", op)              // want `error from shed-critical call RestoreOp discarded`
	_ = a.RestoreOp("rack-3", op)          // want `error from shed-critical call RestoreOp assigned to _`
	PlanContext(context.Background(), 5e6) // want `error from shed-critical call PlanContext discarded`
	Shutdowns()                            // not a variant of a critical name
}

func good(a Actuator, p Publisher, f FireAndForgetPublisher) error {
	if err := a.Shutdown("rack-1"); err != nil {
		return err
	}
	errs := 0
	if err := p.Publish("power/ups", 1); err != nil {
		errs++
	}
	f.Publish("power/ups", 1) // no error result: nothing discarded
	actions, _, err := Plan(5e6)
	if err != nil {
		return err
	}
	if err := a.ThrottleOp("rack-2", 1e3, Op{}); err != nil {
		return err
	}
	_ = actions
	_ = errs
	return nil
}
